"""Monte Carlo simulation of the one-sided cycle shuffles and the bookmark
strong stationary time, with its exact expectation.

A bookmark starts right above the bottom card.  Each step picks a position i
from the distribution P, reinserts that card uniformly at a position j
weakly below i, and the bookmark gains a card whenever a card from weakly
above its gap lands weakly below it (a card dropped exactly into the gap
counts as below).  The shuffle is fully mixed at the first time tau when all
n cards sit below the bookmark.  Tau is a sum of independent Geometric(p_b)
stages (stage_probabilities), so E[tau] = sum over b of 1 / p_b whenever
P(1) > 0; for the uniform P this is sum over i = 2..n of
n / (i (H_n - H_{i-1})).  exact_expected_tau sums it in Fractions up to
n = 200; bound_check_sweep sums it in float64, within a relative error of
gamma_{2n} = 2nu / (1 - 2nu), u = 2^-53, on any IEEE platform.

Randomness is Philox4x64-10 ("philox4x64", Salmon et al., SC'11): trial t
of a run seeded s draws the stream keyed (s, t), the stream numpy's
Philox(key=[s, t]) produces.  simulate_sst computes those streams itself
with a vectorised numpy Philox kernel, checked word for word against
numpy's Philox in the tests, and advances SST_LANES lanes in lockstep, one
block of four words (two steps) per pass, each lane at its own block index.
A lane whose trial has finished takes the next unused stream and starts it
at block 0, so every lane stays busy until the streams run out.  Results
therefore depend only on (seed, trials), never on the lane count.  The
position i of each step is looked up from its raw word through a guide
table over the cumulative distribution (_inverse_cdf), the value
searchsorted gives for the word's double.
fast_bookmark_sim takes the stage probabilities as floats from one integer
running sum over a common denominator, each the correctly rounded float of
its exact Fraction, and draws each geometric stage as numpy's
Generator.geometric does, draw for draw: below p = 1/3 that is inversion of
one Exp(1) variate, ceil(E / -log1p(-p)) (Devroye 1986, X.2), done here in
bulk; from 1/3 up it is numpy's search over the float partial sums
p + pq + ..., done here through the same guide table, built once per stage,
over the raw Philox words that numpy's doubles would be made of.  A draw
above sums that have stopped growing, where numpy would search forever,
raises ValueError.  Each stage is drawn SST_LANES trials at a time into one
reused buffer, each chunk continuing the stage's stream, and added into the
totals, the one array of all trials.  The histogram has one form, the
sorted (tau, count) pairs: fast_bookmark_sim reads them once from the runs
of the totals sorted in place, and frees the totals before it makes them.
Means and standard errors are derived from exact integer sums of the
sampled times.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .inputs import Scalar, validate_distribution

RNG_ID = "philox4x64"

_U64 = (1 << 64) - 1
_FAST_SIM_KEY_OFFSET = 1 << 63

# Lanes simulated side by side in simulate_sst, each refilled with the next
# trial when its own finishes, and the trials of one stage drawn at once in
# fast_bookmark_sim; bounds their memory only.
SST_LANES = 16_384

# Philox4x64-10 constants, stacked as (counter word 0, counter word 2) and
# (key word 0, key word 1); the multipliers are split into 32-bit halves
# because numpy has no 64x64 -> 128-bit product.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & np.uint64(0xFFFFFFFF)
_PHILOX_M_HI = _PHILOX_M >> np.uint64(32)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Buckets of the inverse-cdf guide table, one per value of a word's top 12 bits.
_GUIDE_BITS = 12
_GUIDE_SIZE = 1 << _GUIDE_BITS

# Fraction arithmetic for the exact expectation is kept to moderate n; the
# harmonic denominators grow like lcm(1..n) and summation multiplies them up.
EXACT_TAU_MAX_N = 200
# A run reports E[tau] only when its numerator and denominator have at most 4,300 digits,
# CPython's default limit for str() of an int, fixed whatever the interpreter's own limit.
_EXACT_TAU_BELOW = 10**4300


def _apply_move(deck: list[int], below: int, i: int, j: int) -> int:
    """Move the card at position i to position j >= i; return the new count
    of cards below the bookmark.

    The bookmark gap sits between positions n - below and n - below + 1, so
    the card crosses exactly when i <= n - below <= j.
    """
    if i != j:
        deck.insert(j - 1, deck.pop(i - 1))
    if i <= len(deck) - below <= j:
        below += 1
    return below


def _validated(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """The distribution as Fractions, refusing P(1) = 0."""
    probs = validate_distribution(probabilities)
    if probs[0] == 0:
        raise ValueError(
            "P(1) = 0: the top card never moves, so the chain's stationary "
            "distribution is not uniform and no stationary time exists"
        )
    return probs


def _trial_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_block(
    seed: int, streams: np.ndarray, block: int | np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Words 4 * block .. 4 * block + 3 of the Philox4x64-10 streams keyed
    (seed mod 2^64, stream), one column per stream: the counter
    (block + 1, 0, 0, 0) through ten rounds, as numpy's Philox draws them.
    block is one index for every stream or an array of one per stream.
    The rounds run in scratch, a uint64 array of shape (6, 2, >= lanes)."""
    lanes = len(streams)
    even, odd, low, high, cross, spare = scratch[:, :, :lanes]  # even: counter words 0 and 2
    scratch[:2, :, :lanes] = 0
    even[0] = block + 1
    for r in range(_PHILOX_ROUNDS):
        # 64 x 64 -> 128-bit products of the multipliers with words 0 and 2
        np.bitwise_and(even, 0xFFFFFFFF, out=low)
        np.right_shift(even, 32, out=high)
        even *= _PHILOX_M
        np.multiply(low, _PHILOX_M_LO, out=spare)
        spare >>= 32
        np.multiply(high, _PHILOX_M_LO, out=cross)
        cross += spare
        low *= _PHILOX_M_HI
        np.bitwise_and(cross, 0xFFFFFFFF, out=spare)
        low += spare
        high *= _PHILOX_M_HI
        cross >>= 32
        high += cross
        low >>= 32
        high += low
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0), the key
        # (seed, stream) bumped once a round
        high = high[::-1]
        high ^= odd
        high[0] ^= (seed + r * _PHILOX_BUMP[0]) & _U64
        np.add(streams, (r * _PHILOX_BUMP[1]) & _U64, out=spare[0])
        high[1] ^= spare[0]
        even, odd, high = high, even[::-1], odd
    return np.stack((even[0], odd[0], even[1], odd[1]))


def _inverse_cdf(edges: np.ndarray, side: str):
    """The lookup words -> 1 + np.searchsorted(edges, u, side), elementwise
    over the doubles u = (word >> 11) * 2^-53 of raw 64-bit words, for
    ascending edges.  A guide table (Chen and Asau 1974; Devroye 1986,
    III.2.4) over the top 12 bits of the word, floor(u * 4096), holds the
    answer of each bucket that no edge cuts, and 0 where one does; only the
    draws in cut buckets are made doubles and searched.  lookup(words, out)
    writes the answers into the intp array out when one is given.  A draw
    above the last edge has no count (numpy's geometric search, over partial
    sums that stop growing below it, would never return), so the lookup
    raises ValueError for it."""
    last = edges[-1]
    low = np.arange(_GUIDE_SIZE) / _GUIDE_SIZE  # each bucket's first double
    high = low + (1 / _GUIDE_SIZE - 2.0**-53)  # and its last
    first = np.searchsorted(edges, low, side)
    whole = (first == np.searchsorted(edges, high, side)) & (high <= last)
    table = np.where(whole, first + 1, 0)

    def lookup(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(len(words), np.intp)
        # the buckets go into out and are looked up in place: take reads each
        # index before it writes that slot, and copies out first only under
        # its default mode="raise" (every bucket is in range)
        np.right_shift(words, np.uint64(64 - _GUIDE_BITS), out=out.view(np.uint64))
        k = np.take(table, out, out=out, mode="clip")
        cut = np.flatnonzero(k == 0)
        if len(cut):
            u = (words[cut] >> np.uint64(11)) * 2.0**-53
            if u.max() > last:
                raise ValueError(
                    f"a draw of {float(u.max())!r} lies above the last edge {float(last)!r} "
                    "of an inverse cdf: the search for it would never stop"
                )
            k[cut] = np.searchsorted(edges, u, side) + 1
        return k

    return lookup


def _move_rows(decks: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each row of decks with its card at position i[r] moved to position
    j[r] >= i[r], as _apply_move does: one gather of the rotated segments."""
    pos = np.arange(decks.shape[1])
    i0, j0 = i[:, None] - 1, j[:, None] - 1
    source = pos + ((i0 <= pos) & (pos < j0))
    source = np.where(pos == j0, i0, source)
    return np.take_along_axis(decks, source, axis=1)


@dataclass(frozen=True)
class SimulationResult:
    n: int
    trials: int
    seed: int
    rng: str
    mean: float
    stderr: float  # NaN for a single trial; to_json writes it as null
    histogram: tuple[tuple[int, int], ...]
    exact: Fraction | None
    upper_bound: float | None
    conjectured_lower: float | None
    final_counts: Mapping[tuple[int, ...], int] | None = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng,
            "mean": self.mean,
            "stderr": self.stderr if math.isfinite(self.stderr) else None,
            "exact": str(self.exact) if self.exact is not None else None,
            "upper_bound": self.upper_bound,
            "conjectured_lower": self.conjectured_lower,
            "histogram": self.histogram,
        }


def _summarize(
    n: int,
    trials: int,
    seed: int,
    histogram: tuple[tuple[int, int], ...],
    probs: tuple[Fraction, ...],
    final_counts: Mapping[tuple[int, ...], int] | None,
) -> SimulationResult:
    """The result of a run whose taus are histogram, its (tau, count) pairs
    in ascending tau, for the validated distribution probs."""
    total = sum(tau * c for tau, c in histogram)
    total_sq = sum(tau * tau * c for tau, c in histogram)
    mean = total / trials
    if trials > 1:
        variance = (total_sq - Fraction(total * total, trials)) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    else:
        stderr = float("nan")
    exact = _expected_tau(probs) if 2 <= n <= EXACT_TAU_MAX_N else None
    if exact is not None and max(exact.numerator, exact.denominator) >= _EXACT_TAU_BELOW:
        exact = None
    upper = lower = None
    if n >= 2 and probs.count(probs[0]) == n:
        # the bounds are theorems about random-to-below, the uniform P, only
        upper, lower = bounds(n)
    return SimulationResult(
        n, trials, seed, RNG_ID, mean, stderr, histogram, exact, upper, lower, final_counts
    )


def simulate_sst(
    probabilities: Sequence[Scalar],
    trials: int,
    seed: int,
    record_final: bool = False,
) -> SimulationResult:
    """Run the full deck chain until the bookmark tops out, for every trial.

    Requires P(1) > 0.  Trial t consumes the Philox stream keyed (seed, t),
    two doubles (u1, u2) per step.  SST_LANES lanes advance in lockstep: each
    pass draws the next block of every lane's stream and makes its two
    steps, a trial that tops out on the first step sitting out the second.
    At the end of the pass each finished lane takes the next unused stream
    and starts it at block 0; once none is left, finished lanes are dropped.
    The lane count bounds memory only; results depend only on (seed, trials).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    probs = _validated(probabilities)
    cdf = np.cumsum([float(p) for p in probs])
    cdf[-1] = np.inf  # position n takes every draw above cdf[n - 2]
    position = _inverse_cdf(cdf, "right")
    n = len(probs)
    lanes = min(SST_LANES, trials)
    scratch = np.empty((6, 2, lanes), dtype=np.uint64)
    streams = np.arange(lanes, dtype=np.uint64)
    start = np.zeros(lanes, dtype=np.int64)  # the pass in which each lane's trial began
    below = np.ones(lanes, dtype=np.int64)
    steps = np.zeros(lanes, dtype=np.int64)
    identity = np.arange(1, n + 1)
    decks = np.tile(identity, (lanes, 1)) if record_final else None
    unused = lanes  # the next stream no lane has taken
    taus: Counter = Counter()
    finals: list[np.ndarray] = []
    for tick in count():  # one pass, one block per lane
        done = below == n
        if done.any():
            taus.update(steps[done].tolist())
            if decks is not None:
                finals.append(decks[done])
            refill = np.flatnonzero(done)[: trials - unused]
            done[refill] = False
            streams[refill] = np.arange(unused, unused + len(refill), dtype=np.uint64)
            unused += len(refill)
            start[refill] = tick
            below[refill] = 1
            steps[refill] = 0
            if decks is not None:
                decks[refill] = identity
            if done.any():
                live = ~done
                streams, start, below, steps = streams[live], start[live], below[live], steps[live]
                if decks is not None:
                    decks = decks[live]
                if not len(streams):
                    break
        words = _philox_block(seed, streams, tick - start, scratch)
        uniforms = (words[1::2] >> np.uint64(11)) * 2.0**-53
        for step in (0, 1):
            # i from P by the step's first word, j uniform on i..n by its second
            i = position(words[2 * step])
            j = i + (uniforms[step] * (n + 1 - i)).astype(np.int64)
            live = below < n
            steps += live
            # a finished lane has gap 0, which no card can cross
            gap = n - below
            below += (i <= gap) & (gap <= j)
            if decks is not None:
                decks = _move_rows(decks, i, np.where(live, j, i))
    final_counts = None
    if record_final:
        final_counts = Counter(map(tuple, np.concatenate(finals).tolist()))
    return _summarize(n, trials, seed, tuple(sorted(taus.items())), probs, final_counts)


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def climb_probability(n: int, below: int) -> Fraction:
    """Chance that one random-to-below step raises the bookmark past the next
    card when ``below`` cards already sit under it."""
    if not 1 <= below <= n - 1:
        raise ValueError(f"below must be in [1, {n - 1}], got {below}")
    level = below + 1
    return Fraction(level, n) * (harmonic(n) - harmonic(level - 1))


def stage_probabilities(probabilities: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """p_1, ..., p_{n-1}: the chance that one step raises the bookmark while
    b cards sit below it, (b + 1) * sum over i <= n - b of P(i) / (n + 1 - i),
    whatever the deck order, since the card at i crosses iff i <= n - b <= j.
    One integer running sum of P(i) / (n + 1 - i) gives every stage
    (_stage_ratios); for the uniform P, p_b = climb_probability(n, b).
    Also p_b = 1 - g_{n-b}, the eigenvalue of {n - b} under osc_weights(P).

    >>> stage_probabilities([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    (Fraction(7, 12), Fraction(1, 2))
    """
    ratios = _stage_ratios(_validated(probabilities))
    return tuple(Fraction(num, den) for num, den in ratios)[::-1]


def _stage_ratios(probs: tuple[Fraction, ...]) -> Iterator[tuple[int, int]]:
    """(num, den) with p_b = num / den, for b = n - 1 down to 1, from a
    validated distribution: the terms P(i) / (n + 1 - i) are summed as
    integers over den, their least common denominator, so a stage costs no
    rational operation and holds no big integer once the next is made."""
    n = len(probs)
    den = math.lcm(*(p.denominator * (n + 1 - i) for i, p in enumerate(probs[:-1], start=1)))
    running = 0
    for i, p in enumerate(probs[:-1], start=1):
        running += p.numerator * (den // (p.denominator * (n + 1 - i)))
        yield (n + 1 - i) * running, den  # b + 1 = n + 1 - i


def _geometric(rng: np.random.Generator, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """A sampler for stage p: each call fill(out) puts the next len(out)
    draws of rng.geometric(p) in the memory of the float64 buffer out, draw
    for draw, and returns them, so that successive calls continue rng's
    stream where the last one stopped.  For 0 < p < 1/3 numpy inverts one
    Exp(1) variate per draw, ceil(E / -log1p(-p)); fill takes the variates
    in one call and inverts them in bulk, in out.  Otherwise numpy draws one
    double U per draw, from one raw 64-bit word, and searches for the first
    k whose partial sum p + pq + ... + pq^(k-1), added in float64 in that
    order, reaches U; fill takes the raw words in one call and looks them up
    over the same sums, through a guide table built once here, into out
    viewed as intp.  By their 128th term (q <= 2/3) the sums have stopped
    growing."""
    if 0 < p < 1 / 3:
        scale = -math.log1p(-p)

        def fill(out: np.ndarray) -> np.ndarray:
            rng.standard_exponential(out=out)
            out /= scale
            return np.ceil(out, out=out)

        return fill
    terms = np.full(128, 1 - p)
    terms[0] = p
    search = _inverse_cdf(np.cumsum(np.cumprod(terms)), "left")
    raw = rng.bit_generator.random_raw

    def fill(out: np.ndarray) -> np.ndarray:
        return search(raw(len(out)), out.view(np.intp))

    return fill


def _stage_totals(stages: list[float], trials: int, seed: int) -> np.ndarray:
    """Each trial's sum over the stages b = 1, 2, ... of its geometric draw
    at p_b = stages[b - 1], in float64.  Stage b draws from the stream keyed
    (seed, 2^63 + b), SST_LANES trials at a time into one reused buffer,
    which is freed on return."""
    totals = np.zeros(trials)
    chunk = np.empty(min(SST_LANES, trials))
    for below, p in enumerate(stages, start=1):
        fill = _geometric(_trial_rng(seed, _FAST_SIM_KEY_OFFSET + below), p)
        for start in range(0, trials, SST_LANES):
            part = totals[start : start + SST_LANES]
            part += fill(chunk[: len(part)])
    return totals


def fast_bookmark_sim(probabilities: Sequence[Scalar], trials: int, seed: int) -> SimulationResult:
    """Bookmark-only simulation of the shuffle with position distribution P.

    The climb from b to b + 1 cards below the bookmark is geometric with
    success probability p_b of stage_probabilities, the stages being
    independent; tau is their sum over b = 1..n-1 and has the law of
    simulate_sst's tau for the same P.  Requires P(1) > 0.  Stage draws
    use Philox streams keyed off the high key half so they never collide
    with simulate_sst's per-trial streams.  The times are summed in float64,
    which counts them exactly below 2^53; a run in which some tau reaches
    2^53 is refused, and so, before any draw, is a stage probability that
    rounds to 0.0 in float64.
    """
    n = len(probabilities)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    probs = _validated(probabilities)
    # int / int rounds correctly, as float(Fraction(num, den)) does
    stages = [num / den for num, den in _stage_ratios(probs)][::-1]
    if 0.0 in stages:
        raise ValueError(
            f"the climb probability of stage b = {stages.index(0.0) + 1} rounds to 0.0 in float64; "
            "its geometric time cannot be simulated"
        )
    totals = _stage_totals(stages, trials, seed)
    totals.sort()
    if totals[-1] >= 2.0**53:
        raise ValueError(
            "a simulated tau reached 2^53 steps, beyond exact counting; "
            "the stage probabilities are too small to simulate"
        )
    # the last index of each run of equal times, and the run lengths
    ends = np.append(np.flatnonzero(totals[1:] != totals[:-1]), trials - 1)
    counts = np.diff(ends, prepend=-1)
    taus = totals[ends].astype(np.int64)
    del totals, ends  # the histogram's Python objects would otherwise sit on top of them
    histogram = tuple(zip(taus.tolist(), counts.tolist()))
    return _summarize(n, trials, seed, histogram, probs, final_counts=None)


# Kept for benchmarks/tracer.py, which patches it, until ROADMAP item 6 re-points the tracer.
def harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m as an exact rational."""
    return sum((Fraction(1, k) for k in range(1, m + 1)), start=Fraction(0))


def exact_expected_tau(probabilities: Sequence[Scalar]) -> Fraction:
    """Expected steps to the bookmark strong stationary time, exactly:
    sum over b of 1 / p_b.  For the uniform P this is
    sum over i = 2..n of n / (i (H_n - H_{i-1})).

    >>> exact_expected_tau([Fraction(1, 2)] * 2)
    Fraction(2, 1)
    >>> exact_expected_tau([Fraction(1, 3)] * 3)
    Fraction(24, 5)
    >>> exact_expected_tau([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    Fraction(26, 7)
    """
    n = len(probabilities)
    if n < 2:
        raise ValueError(f"the expectation formula needs n >= 2, got {n}")
    if n > EXACT_TAU_MAX_N:
        raise ValueError(
            f"exact rational evaluation is limited to n <= {EXACT_TAU_MAX_N} "
            f"(denominators explode), got n = {n}"
        )
    return _expected_tau(_validated(probabilities))


def _expected_tau(probs: tuple[Fraction, ...]) -> Fraction:
    return sum((Fraction(den, num) for num, den in _stage_ratios(probs)), start=Fraction(0))


def _expected_tau_float(ratios: np.ndarray) -> float:
    """The float64 twin of _expected_tau: sum over b of 1 / p_b, with
    p_b = (b + 1) S_{n-b} and S_k = r_1 + ... + r_k, from the doubles
    r_i = P(i) / (n + 1 - i), i = 1..n-1, each within one rounding of its
    exact value.  The result E' satisfies |E' - E| <= gamma_{2n} E, where
    gamma_k = k u / (1 - k u) and u = 2^-53 (Higham 2002, sections 3.1 and
    4.2): one rounding per ratio and gamma_{k-1} for the prefix sum S_k,
    one rounding each for the multiply by b + 1 and the reciprocal, and
    gamma_{n-2} for the sum of the n - 1 positive terms in any order."""
    n = len(ratios) + 1
    stages = np.cumsum(ratios) * np.arange(n, 1, -1)  # p_b for b = n - 1 down to 1
    return float(np.reciprocal(stages).sum())


def bounds(n: int) -> tuple[float, float]:
    """(proved upper bound, conjectured lower bound) on the expectation, in
    natural logs: n log n + n log log n + n log 2 + 1 and the same without
    the last two terms.  Defined for every n >= 2; log log 2 < 0 is simply
    evaluated, no clamping."""
    if n < 2:
        raise ValueError(f"bounds need n >= 2, got {n}")
    lower = n * math.log(n) + n * math.log(math.log(n))
    return lower + n * math.log(2) + 1, lower


def bound_check_sweep(max_n: int) -> tuple[list[int], list[int]]:
    """For every n in [2, max_n], compare the uniform-P expectation with the
    proved upper bound, and for n >= 3 with the conjectured lower bound, as
    bounds(n) gives them.  The expectation is _expected_tau_float of the
    ratios 1 / (n (n + 1 - i)), one rounding each since n (n + 1 - i) is an
    integer below 2^53; n is a violation unless the value clears the bound
    by more than twice its error bound gamma_{2n}, the factor 2 covering
    the second-order term and the roundings of the comparison.  Returns
    (upper-bound violations, lower-bound violations); the first list empty
    certifies the theorem numerically in any IEEE double arithmetic, the
    second is conjecture status only and never gates anything."""
    upper_violations: list[int] = []
    lower_violations: list[int] = []
    for n in range(2, max_n + 1):
        value = _expected_tau_float(1 / (n * np.arange(n, 1, -1)))
        gamma = 2 * n / (2.0**53 - 2 * n)  # gamma_{2n}
        slack = 2 * gamma * value
        upper, lower = bounds(n)
        if value + slack >= upper:
            upper_violations.append(n)
        if n >= 3 and value - slack <= lower:
            lower_violations.append(n)
    return upper_violations, lower_violations
