"""Spans and counters around the package's public functions.

The tracer is installed from outside, in the operation's own process, by
replacing each public function with a timing wrapper in every namespace
that holds it; the package itself is not changed.  Functions that run once
or a few times per operation record one span each (name, start, end,
parent span, time spent in direct children).  Functions that run up to
millions of times (the group-algebra product, the bilinear form, the
polynomial arithmetic, ...) only accumulate a call count, a total time and
a self time.  Everything is kept in memory and written out when the
operation ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, float]] = []
        self.calls: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        # one frame per active wrapped call: [time in direct children, enclosing span index]
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable, aggregate: bool, after: Callable | None = None) -> Callable:
        stack, clock = self._stack, time.perf_counter
        if aggregate:
            entry = self.calls.setdefault(name, [0, 0.0, 0.0])

            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return counted

        spans = self.spans

        def spanned(*args, **kwargs):
            frame = [0.0, len(spans)]
            parent = stack[-1][1] if stack else None
            spans.append(None)  # reserve the index so children can name this span
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans[frame[1]] = (name, start, end, parent, frame[0])
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return spanned

    def patch(
        self, owner, attr: str, name: str, aggregate: bool = False, after: Callable | None = None
    ) -> None:
        """Replace ``owner.attr`` and every other reference to the same object
        in the owner and in the package's module namespaces."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, aggregate, after)
        namespaces = [owner] + [
            mod for key, mod in sys.modules.items() if key.split(".")[0] == "cycleshuffles"
        ]
        for space in namespaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "calls": self.calls,
                    "counts": dict(self.counts),
                    "maxima": dict(self.maxima),
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of the package."""
    import numpy as np

    from cycleshuffles import (
        algebra,
        basis,
        checks,
        cli,
        identities,
        lacunar,
        polys,
        shuffles,
        simulate,
        spectrum,
    )

    counts, maxima = tracer.counts, tracer.maxima
    catalogs_built: set[int] = set()

    def after_catalog(catalog, n, *_):
        if n not in catalogs_built:  # enumerate_lacunar is cached per process
            catalogs_built.add(n)
            counts["lacunar.catalog_rows"] += len(catalog)

    def after_mul(product, x, y):
        if isinstance(y, algebra.AlgebraElement):
            counts["algebra.term_pairs"] += len(x) * len(y)
            maxima["algebra.max_product_terms"] = max(maxima["algebra.max_product_terms"], len(product))

    def after_spectrum(report, *_args, **_kwargs):
        counts["spectrum.rows"] += len(report.rows)

    def after_sst(result, *_args, **_kwargs):
        counts["simulate.sst_trials"] += result.trials
        counts["simulate.sst_steps"] += sum(tau * c for tau, c in result.histogram)

    patch = tracer.patch
    patch(cli, "run", "cli.run")
    patch(lacunar, "enumerate_lacunar", "lacunar.enumerate_lacunar", True, after_catalog)
    patch(spectrum, "full_spectrum", "spectrum.full_spectrum", after=after_spectrum)
    patch(spectrum, "delta", "spectrum.delta", True)
    for fn in ("annihilator_check", "minimal_polynomial", "char_poly_oracle"):
        patch(spectrum, fn, f"spectrum.{fn}")
    for method in ("__add__", "__sub__", "__neg__", "__mul__", "__call__", "monic", "divmod", "divides"):
        patch(polys.Polynomial, method, f"polys.{method}", True)
    for fn in ("poly_gcd", "poly_lcm"):
        patch(polys, fn, f"polys.{fn}", True)
    patch(algebra.AlgebraElement, "__mul__", "algebra.mul", True, after_mul)
    patch(algebra, "bilinear_form", "algebra.bilinear_form", True)
    for fn in ("build_a_family", "dual_basis", "rmul_matrix"):
        patch(basis, fn, f"basis.{fn}")
    patch(basis.QIndexTable, "__init__", "basis.qindex_table")
    for fn in ("expand_in_a", "expand_in_b"):
        patch(basis, fn, f"basis.{fn}", True)
    patch(shuffles, "transition_matrix", "shuffles.transition_matrix")
    for fn in ("identity_suite", "commutator_nilpotency", "separate_nilpotency_exponents"):
        patch(identities, fn, f"identities.{fn}")
    for fn in ("triangularity", "annihilator", "duality", "identities", "boolean_partition"):
        patch(checks, f"check_{fn}", f"checks.{fn}")
    patch(simulate, "simulate_sst", "simulate.simulate_sst", after=after_sst)
    patch(simulate, "fast_bookmark_sim", "simulate.fast_bookmark_sim")
    patch(simulate, "climb_probability", "simulate.climb_probability", True)
    patch(simulate, "harmonic", "simulate.harmonic", True)
    patch(np.random, "Philox", "simulate.philox", True)
