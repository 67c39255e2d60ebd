"""Run one benchmark operation in this fresh interpreter, as a user runs the CLI.

    python3 benchmarks/op.py SPEC

SPEC is a JSON object:
  {"kind": "setup"}                       import the CLI and build its parser
  {"kind": "cli", "argv": [...]}          cycleshuffles.cli.run(argv)
  {"kind": "minimal_polynomial", "weights": [...], "output": PATH}
  {"kind": "char_poly", "weights": [...], "output": PATH}
                                          library calls; coefficients go to PATH
With "trace": PATH the public functions are wrapped (see tracer.py) and the
spans and counters are written to PATH when the operation ends.
The exit code is the CLI's, or 0 for a library call that returned.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _library_call(spec: dict) -> int:
    from fractions import Fraction

    from cycleshuffles import basis, shuffles, spectrum

    weights = [Fraction(w) for w in spec["weights"]]
    x = shuffles.combine(weights)
    if spec["kind"] == "minimal_polynomial":
        poly = spectrum.minimal_polynomial(x, max_n=len(weights))
    else:
        _, matrix = basis.rmul_matrix(x, "a", "qindex")
        poly = spectrum.char_poly_oracle(matrix)
    with open(spec["output"], "w") as handle:
        json.dump({"coeffs": poly.to_json()}, handle)
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    from cycleshuffles import cli

    if spec["kind"] == "setup":
        cli.build_parser()
        return 0
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if spec["kind"] == "cli":
            return cli.run(spec["argv"])
        return _library_call(spec)
    finally:
        if tracer is not None:
            tracer.dump(spec["trace"])


if __name__ == "__main__":
    sys.exit(main())
