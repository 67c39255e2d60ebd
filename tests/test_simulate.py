import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from cycleshuffles import simulate
from cycleshuffles.simulate import (
    EXACT_TAU_MAX_N,
    RNG_ID,
    _apply_move,
    _move_rows,
    _inverse_cdf,
    _philox_block,
    _summarize,
    _trial_rng,
    _validated,
    bound_check_sweep,
    bounds,
    climb_probability,
    exact_expected_tau,
    expected_tau_extended,
    fast_bookmark_sim,
    harmonic,
    simulate_sst,
    stage_probabilities,
)
from cycleshuffles.inputs import osc_weights, uniform_distribution
from cycleshuffles.spectrum import eigenvalue_for_set, full_spectrum


def uniform(n):
    return [Fraction(1, n)] * n


def _sample_move(u1, u2, cdf, n):
    """The move (i, j) drawn by the uniforms (u1, u2): i from the cumulative
    distribution cdf by a search, j uniform on i..n; the oracle of the
    guide-table draw in simulate_sst.  Works elementwise on arrays."""
    i = np.minimum(np.searchsorted(cdf, u1, side="right") + 1, n)
    j = i + (u2 * (n + 1 - i)).astype(np.int64)
    return i, j


def test_apply_move_deck_semantics():
    deck = [1, 2, 3, 4, 5]
    below = _apply_move(deck, 1, 2, 4)
    assert deck == [1, 3, 4, 2, 5]
    assert below == 2  # gap at 4|5: the move from 2 lands weakly below it


def test_apply_move_stay_in_place_away_from_bookmark():
    # i = j above the gap leaves both the deck and the bookmark unchanged
    deck = [1, 2, 3, 4, 5]
    assert _apply_move(deck, 1, 2, 2) == 1
    assert deck == [1, 2, 3, 4, 5]


def test_apply_move_card_directly_above_gap_always_crosses():
    # the card right above the bookmark is reinserted into the gap, which
    # counts as below it, even when the deck order does not change
    deck = [1, 2, 3]
    below = _apply_move(deck, 1, 2, 2)
    assert deck == [1, 2, 3]
    assert below == 2


def test_apply_move_below_gap_never_crosses():
    deck = [1, 2, 3, 4]
    assert _apply_move(deck, 2, 3, 4) == 2
    assert deck == [1, 2, 4, 3]


def test_forced_crossing_n2():
    deck = [1, 2]
    below = _apply_move(deck, 1, 1, 2)
    assert deck == [2, 1]
    assert below == 2


def test_bookmark_monotone_over_many_random_steps():
    for n, seed in ((3, 1), (6, 2), (10, 3)):
        rng = _trial_rng(seed, 0)
        cdf = np.cumsum([1.0 / n] * n)
        deck = list(range(1, n + 1))
        below = 1
        for _ in range(10_000):
            u1, u2 = rng.random(2)
            i, j = _sample_move(u1, u2, cdf, n)
            assert i <= j <= n
            new_below = _apply_move(deck, below, i, j)
            assert new_below >= below
            below = new_below


def test_random_moves_keep_the_deck_a_permutation():
    n = 5
    rng = _trial_rng(123, 0)
    cdf = np.cumsum([1.0 / n] * n)
    deck = list(range(1, n + 1))
    below = 1
    for _ in range(200):
        u1, u2 = rng.random(2)
        i, j = _sample_move(u1, u2, cdf, n)
        new_below = _apply_move(deck, below, i, j)
        assert sorted(deck) == list(range(1, n + 1))
        assert new_below >= below
        if new_below == n:
            deck, new_below = list(range(1, n + 1)), 1
        below = new_below


def test_simulate_rejects_an_empty_deck():
    with pytest.raises(ValueError):
        simulate_sst([], trials=10, seed=1)
    with pytest.raises(ValueError):
        fast_bookmark_sim([], trials=10, seed=1)


def test_simulation_result_is_frozen():
    result = simulate_sst(uniform(2), trials=3, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.mean = 0.0


def test_climb_probability_values():
    assert climb_probability(2, 1) == Fraction(1, 2)
    # level i = below + 1 wants (i/n)(H_n - H_{i-1})
    n = 6
    for below in range(1, n):
        i = below + 1
        assert climb_probability(n, below) == Fraction(i, n) * (harmonic(n) - harmonic(i - 1))
    with pytest.raises(ValueError):
        climb_probability(6, 6)


def test_climb_probability_empirical():
    n = 6
    cdf = np.cumsum([1.0 / n] * n)
    draws = 40_000
    for below in range(1, n):
        rng = _trial_rng(2024, below)
        u = rng.random((draws, 2))
        crossings = 0
        for u1, u2 in u:
            i, j = _sample_move(u1, u2, cdf, n)
            deck = list(range(1, n + 1))
            if _apply_move(deck, below, i, j) == below + 1:
                crossings += 1
        p = float(climb_probability(n, below))
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(crossings / draws - p) < 4.5 * sigma


def test_simulate_requires_top_card_motion():
    with pytest.raises(ValueError, match="top card"):
        simulate_sst([Fraction(0), Fraction(1)], trials=10, seed=1)
    with pytest.raises(ValueError):
        simulate_sst([Fraction(1, 2), Fraction(1, 3)], trials=10, seed=1)
    with pytest.raises(ValueError):
        simulate_sst(uniform(3), trials=0, seed=1)


def test_simulation_reproducible_and_chunk_independent(monkeypatch):
    a = simulate_sst(uniform(4), trials=500, seed=77)
    b = simulate_sst(uniform(4), trials=500, seed=77)
    monkeypatch.setattr(simulate, "SST_LANES", 13)
    c = simulate_sst(uniform(4), trials=500, seed=77)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr
    assert a.histogram == b.histogram == c.histogram
    d = simulate_sst(uniform(4), trials=500, seed=78)
    assert d.histogram != a.histogram


def test_simulated_mean_matches_exact_small_n():
    for n, trials, seed in ((2, 40_000, 5), (3, 40_000, 6)):
        result = simulate_sst(uniform(n), trials=trials, seed=seed)
        exact = float(exact_expected_tau(uniform_distribution(n)))
        assert result.exact == exact_expected_tau(uniform_distribution(n))
        assert abs(result.mean - exact) <= 3.5 * result.stderr


def test_fast_bookmark_sim_matches_exact():
    for n, seed in ((2, 11), (3, 12), (5, 13)):
        result = fast_bookmark_sim(uniform_distribution(n), trials=40_000, seed=seed)
        exact = float(exact_expected_tau(uniform_distribution(n)))
        assert abs(result.mean - exact) <= 3.5 * result.stderr


def _stage_probabilities_oracle(n):
    """One fresh harmonic sum per stage, O(n^2) rational operations."""
    def h(m):
        return sum((Fraction(1, k) for k in range(1, m + 1)), start=Fraction(0))

    return [float(Fraction(below + 1, n) * (h(n) - h(below))) for below in range(1, n)]


def test_fast_bookmark_stages_and_histogram_are_unchanged():
    n, trials, seed = 240, 3000, 17
    probabilities = _stage_probabilities_oracle(n)
    assert [float(p) for p in stage_probabilities(uniform_distribution(n))] == probabilities
    totals = np.zeros(trials, dtype=np.int64)
    for below, p in enumerate(probabilities, start=1):
        totals += _trial_rng(seed, (1 << 63) + below).geometric(p, size=trials)
    expected = tuple(sorted(Counter(totals.tolist()).items()))
    assert fast_bookmark_sim(uniform_distribution(n), trials, seed).histogram == expected


def test_fast_bookmark_histogram_golden_at_n_1000():
    # digest of the histogram printed by the per-stage harmonic implementation
    result = fast_bookmark_sim(uniform_distribution(1000), 2000, 5)
    digest = hashlib.sha256(json.dumps(result.histogram).encode()).hexdigest()
    assert digest == "493efab00a19efbd85a7fa8a0dd10c1643215cad13989e273a9fed3cae9b7a24"
    assert result.mean == 9367.9465


def test_fast_and_full_simulators_agree():
    for probs in (uniform_distribution(5), _top_heavy(5)):
        full = simulate_sst(probs, trials=20_000, seed=42)
        fast = fast_bookmark_sim(probs, trials=20_000, seed=42)
        assert full.exact == fast.exact == exact_expected_tau(probs)
        combined = math.hypot(full.stderr, fast.stderr)
        assert abs(full.mean - fast.mean) <= 4 * combined


def test_exact_expected_tau_values():
    assert exact_expected_tau(uniform_distribution(2)) == 2
    assert exact_expected_tau(uniform_distribution(3)) == Fraction(24, 5)
    with pytest.raises(ValueError):
        exact_expected_tau(uniform_distribution(1))
    with pytest.raises(ValueError):
        exact_expected_tau(uniform_distribution(EXACT_TAU_MAX_N + 1))


def test_extended_precision_matches_exact():
    for n in (2, 3, 10, 50):
        assert float(expected_tau_extended(n)) == pytest.approx(
            float(exact_expected_tau(uniform_distribution(n))), rel=1e-15
        )


def test_bounds_examples():
    upper, lower = bounds(3)
    assert upper == pytest.approx(6.65742, abs=1e-4)
    assert upper >= float(exact_expected_tau(uniform_distribution(3)))
    assert lower == pytest.approx(3.57798, abs=1e-4)
    bounds(2)  # log log 2 < 0 is evaluated, not clamped
    with pytest.raises(ValueError):
        bounds(1)


def test_bounds_equal_the_spelled_out_formula():
    # the float formula bounds() used before it shared _bound_pair with the sweep
    for n in range(2, 201):
        loglog = math.log(math.log(n))
        upper = n * math.log(n) + n * loglog + n * math.log(2) + 1
        lower = n * math.log(n) + n * loglog
        assert bounds(n) == (upper, lower)


def test_bound_sweep_small():
    upper_violations, lower_violations = bound_check_sweep(200)
    assert upper_violations == []
    assert lower_violations == []


def test_longdouble_precision_floor():
    # the sweep contract asks for >= 64 significand bits (x87 80-bit extended)
    assert np.finfo(np.longdouble).nmant >= 63


def test_record_final_counts():
    result = simulate_sst(uniform(3), trials=300, seed=9, record_final=True)
    assert sum(result.final_counts.values()) == 300
    assert all(sorted(deck) == [1, 2, 3] for deck in result.final_counts)


def test_result_json_schema():
    result = simulate_sst(uniform(3), trials=50, seed=4)
    data = result.to_json()
    assert set(data) == {
        "n",
        "trials",
        "seed",
        "rng",
        "mean",
        "stderr",
        "exact",
        "upper_bound",
        "conjectured_lower",
        "histogram",
    }
    assert data["rng"] == RNG_ID
    assert data["exact"] == "24/5"
    assert sum(count for _, count in data["histogram"]) == 50


def test_non_uniform_reports_exact_without_r2b_bounds():
    result = simulate_sst([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], trials=50, seed=4)
    assert result.exact == Fraction(26, 7)
    assert result.upper_bound is None
    assert result.conjectured_lower is None
    assert result.to_json()["exact"] == "26/7"


def _top_heavy(n):
    return [Fraction(2 * (n + 1 - i), n * (n + 1)) for i in range(1, n + 1)]


def _gappy(n):
    if n == 1:
        return [Fraction(1)]
    return [Fraction(1, 2)] + [Fraction(0)] * (n - 2) + [Fraction(1, 2)]


def _bottom_heavy(n):
    return [Fraction(2 * i, n * (n + 1)) for i in range(1, n + 1)]


def _point_mass(n):
    return [Fraction(1)] + [Fraction(0)] * (n - 1)


def _test_distributions(n):
    return [uniform_distribution(n), _point_mass(n), _top_heavy(n), _bottom_heavy(n)]


def _moves(probs):
    """Every move (i, j) of one step with its exact probability P(i)/(n+1-i)."""
    n = len(probs)
    for i, p in enumerate(probs, start=1):
        if p:
            for j in range(i, n + 1):
                yield i, j, p / (n + 1 - i)


def test_stage_probabilities_equal_one_step_crossing_mass():
    for n in range(2, 8):
        gappy = [Fraction(1, 2)] + [Fraction(0)] * (n - 2) + [Fraction(1, 2)]
        sparse = [Fraction(1, n) if i % 2 == 0 else Fraction(0) for i in range(n)]
        sparse[0] += 1 - sum(sparse)
        for probs in _test_distributions(n) + [gappy, sparse]:
            stages = stage_probabilities(probs)
            assert len(stages) == n - 1
            for below in range(1, n):
                crossing = sum(
                    (w for i, j, w in _moves(probs)
                     if _apply_move(list(range(1, n + 1)), below, i, j) == below + 1),
                    start=Fraction(0),
                )
                assert stages[below - 1] == crossing, (probs, below)


def test_uniform_stage_probabilities_equal_climb_probability():
    for n in range(2, 61):
        stages = stage_probabilities(uniform_distribution(n))
        assert stages == tuple(climb_probability(n, b) for b in range(1, n))
        assert exact_expected_tau(uniform_distribution(n)) == sum(1 / p for p in stages)


def _seeded_distribution(n, rng):
    """A random P with P(1) > 0; about a third of the other positions are 0."""
    raw = [rng.randint(1, 9)] + [rng.choice((0, 0, 0, *range(1, 9))) for _ in range(n - 1)]
    return [Fraction(r, sum(raw)) for r in raw]


@pytest.mark.parametrize("seed", range(8))
def test_each_stage_probability_is_one_minus_a_singleton_eigenvalue(seed):
    # p_b = 1 - g_{n-b} under osc_weights(P): g_{k} = 1 - (n + 1 - k) * sum_{ell <= k} lambda_ell
    rng = random.Random(seed)
    for n in range(2, 31):
        probs = _seeded_distribution(n, rng)
        weights = osc_weights(probs)
        stages = stage_probabilities(probs)
        assert stages == tuple(1 - eigenvalue_for_set(weights, {n - b}) for b in range(1, n)), probs
        if n <= 14:
            # the largest g_I over nonempty I sits at a singleton, so lambda_2 = 1 - min p_b
            rows = full_spectrum(weights).rows
            assert rows[0].members == () and rows[0].eigenvalue == 1
            assert max(row.eigenvalue for row in rows[1:]) == 1 - min(stages), probs


def test_stage_probabilities_and_exact_tau_need_p1_positive():
    probs = [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    for fn in (stage_probabilities, exact_expected_tau):
        with pytest.raises(ValueError, match="top card"):
            fn(probs)
    with pytest.raises(ValueError, match="top card"):
        fast_bookmark_sim(probs, trials=10, seed=1)


def _geometric_sum_pmf(stages, horizon):
    """P(sum of independent Geometric(p_b) on {1, 2, ...} = k) for k <= horizon."""
    pmf = [Fraction(1)] + [Fraction(0)] * horizon
    for p in stages:
        geometric = [Fraction(0)] + [p * (1 - p) ** (k - 1) for k in range(1, horizon + 1)]
        pmf = [
            sum((pmf[m] * geometric[k - m] for m in range(k + 1)), start=Fraction(0))
            for k in range(horizon + 1)
        ]
    return pmf


def test_exact_chain_tau_law_and_uniform_deck_at_tau():
    """Propagate the exact (deck, below) chain through _apply_move: tau is
    the sum of the Geometric(p_b) stages, and the deck at tau is uniform."""
    horizon = 12
    for n in range(2, 5):
        decks = list(itertools.permutations(range(1, n + 1)))
        for probs in _test_distributions(n):
            moves = list(_moves(probs))
            pmf = _geometric_sum_pmf(stage_probabilities(probs), horizon)
            alive = {(tuple(range(1, n + 1)), 1): Fraction(1)}
            for k in range(1, horizon + 1):
                nxt, stopped = Counter(), Counter()
                for (deck, below), mass in alive.items():
                    for i, j, w in moves:
                        moved = list(deck)
                        new_below = _apply_move(moved, below, i, j)
                        if new_below == n:
                            stopped[tuple(moved)] += mass * w
                        else:
                            nxt[tuple(moved), new_below] += mass * w
                alive = nxt
                assert sum(stopped.values(), Fraction(0)) == pmf[k], (probs, k)
                assert all(stopped[deck] == pmf[k] / len(decks) for deck in decks), (probs, k)


_EDGE_SEEDS = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1, -5, (1 << 64) + 3]
_EDGE_STREAMS = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]


def test_philox_kernel_matches_numpy_philox():
    draws = np.random.default_rng(20261018)
    seeds = _EDGE_SEEDS + [int(s) for s in draws.integers(0, 1 << 64, 6, dtype=np.uint64)]
    random_streams = [int(t) for t in draws.integers(0, 1 << 64, 6, dtype=np.uint64)]
    streams = np.array(_EDGE_STREAMS + random_streams, dtype=np.uint64)
    blocks = 4
    scratch = np.empty((6, 2, len(streams)), dtype=np.uint64)
    for seed in seeds:
        words = np.concatenate([_philox_block(seed, streams, b, scratch) for b in range(blocks)])
        words = words.reshape(blocks, 4, -1).transpose(2, 0, 1).reshape(len(streams), -1)
        doubles = (words >> np.uint64(11)) * 2.0**-53
        for t, stream in enumerate(streams.tolist()):
            key = np.array([seed & ((1 << 64) - 1), stream], dtype=np.uint64)
            assert np.array_equal(words[t], np.random.Philox(key=key).random_raw(4 * blocks))
            assert np.array_equal(doubles[t], _trial_rng(seed, stream).random(4 * blocks))
    # one block index per lane, as simulate_sst passes them; Philox(counter=b)
    # starts numpy's stream at block b
    key = np.array([3, 4], dtype=np.uint64)
    head = np.random.Philox(key=key).random_raw(12).reshape(3, 4)
    for b in range(3):
        assert np.array_equal(np.random.Philox(counter=b, key=key).random_raw(4), head[b])
    lane_blocks = [0, 1, 2, 1 << 32, (1 << 32) - 1, (1 << 62) + 5, (1 << 64) - 2]
    lane_blocks += [int(b) for b in draws.integers(0, 1 << 63, len(streams) - len(lane_blocks))]
    for seed in seeds:
        for index in (lane_blocks, lane_blocks[::-1]):
            index = np.array(index, dtype=np.uint64)
            words = _philox_block(seed, streams, index, scratch)
            for t, stream in enumerate(streams.tolist()):
                key = np.array([seed & ((1 << 64) - 1), stream], dtype=np.uint64)
                expected = np.random.Philox(counter=int(index[t]), key=key).random_raw(4)
                assert np.array_equal(words[:, t], expected)
    # a small int64 index array is read as the same counters
    small = np.arange(len(streams), dtype=np.int64) % 3
    assert np.array_equal(
        _philox_block(5, streams, small, scratch), _philox_block(5, streams, small.astype(np.uint64), scratch)
    )


def test_philox_kernel_reads_nothing_its_scratch_held():
    # simulate_sst keeps the scratch of its first lane count as lanes drop
    streams = np.arange(5, dtype=np.uint64)
    fresh = _philox_block(9, streams, 3, np.zeros((6, 2, 5), dtype=np.uint64))
    dirty = np.full((6, 2, 8), (1 << 64) - 1, dtype=np.uint64)
    assert np.array_equal(_philox_block(9, streams, 3, dirty), fresh)


def test_bulk_stage_sampler_equals_numpy_geometric():
    draws = np.random.default_rng(20261018)
    grid = [1.0, 0.5, 1 / 3, float(np.nextafter(1 / 3, 0)), float(np.nextafter(1 / 3, 1)), 0.2, 1e-3, 1e-9]
    grid += draws.uniform(0, 1, 6).tolist() + (10.0 ** -draws.uniform(0, 12, 6)).tolist()
    size = 4099
    for key in ([0, 0], [7, 1 << 63], [(1 << 64) - 1, 12345]):
        key = np.array(key, dtype=np.uint64)
        for p in grid:
            expected = np.random.Generator(np.random.Philox(key=key)).geometric(p, size=size)
            rng = np.random.Generator(np.random.Philox(key=key))
            bulk = simulate._geometric(rng, p, np.full(size, -1.0))
            assert np.array_equal(bulk, expected), (key, p)
            # the stream is left where numpy's own draws leave it
            after = np.random.Generator(np.random.Philox(key=key))
            after.geometric(p, size=size)
            assert rng.random() == after.random()


def _doubles(words):
    return (words >> np.uint64(11)) * 2.0**-53


def _words_around(edges):
    """Raw words whose doubles sit at and next to every edge and every bucket
    boundary of the guide table, the words 0 and 2^64 - 1, and random words."""
    steps = np.concatenate([np.floor(edges * 2.0**53), np.arange(4097) * 2.0**41])
    near = (steps[:, None] + np.arange(-1, 2)).ravel()
    near = near[(0 <= near) & (near < 2.0**53)].astype(np.uint64) << np.uint64(11)
    extremes = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    random_words = np.random.default_rng(20261019).integers(0, 1 << 64, 50_000, dtype=np.uint64)
    return np.concatenate([near, extremes, random_words])


def _stage_sums(p):
    terms = np.full(128, 1 - p)
    terms[0] = p
    return np.cumsum(np.cumprod(terms))


LOOKUP_EDGES = {
    # 0.5 and 0.75 are the first doubles of buckets 2048 and 3072
    "edges on bucket boundaries": np.cumsum([0.5, 0.25, 0.25]),
    "repeated edges of zero-probability positions": np.cumsum([float(p) for p in _gappy(7)]),
    "a last edge that rounds below 1": np.cumsum([0.1] * 10),
    "more edges than buckets": np.cumsum([1 / 5000] * 5000),
    "the partial sums of the geometric search at p = 1/3": _stage_sums(1 / 3),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", LOOKUP_EDGES)
def test_inverse_cdf_matches_searchsorted_word_for_word(case, side):
    edges = LOOKUP_EDGES[case]
    u = _doubles(_words_around(edges))
    lookup = _inverse_cdf(edges, side)
    inside = u <= edges[-1]
    assert np.array_equal(lookup(u[inside]), np.searchsorted(edges, u[inside], side) + 1)
    if not inside.all():
        with pytest.raises(ValueError, match="above the last edge"):
            lookup(u)


def test_inverse_cdf_refuses_a_draw_above_its_last_edge():
    lookup = _inverse_cdf(np.array([0.25, 0.5]), "left")
    assert lookup(np.array([0.0, 0.25, 0.3, 0.5])).tolist() == [1, 1, 2, 2]
    with pytest.raises(ValueError, match="0.5000000000000001 lies above the last edge 0.5"):
        lookup(np.array([0.1, np.nextafter(0.5, 1)]))


class _TopDraws:
    """A generator whose every double is the largest below 1."""

    def random(self, out):
        out[...] = 1 - 2.0**-53


def test_a_stalled_geometric_search_is_refused():
    # at p = 0.7 the float partial sums stop growing at 1 - 3 * 2^-53, so
    # numpy's search for a draw above them would never return
    assert _stage_sums(0.7)[-1] == 1 - 3 * 2.0**-53
    with pytest.raises(ValueError, match="would never stop"):
        simulate._geometric(_TopDraws(), 0.7, np.empty(5))
    assert simulate._geometric(_TopDraws(), 0.5, np.empty(5)).tolist() == [53.0] * 5  # 1 - 2^-k reaches it at k = 53


def _chi_square_p_value(histogram, pmf, trials):
    """Pearson's test of the histogram against pmf[k] = P(tau = k) for k
    below len(pmf), the rest in one tail bin; bins are merged left to right
    until each expects at least 5 counts."""
    expected = [float(q) * trials for q in pmf] + [float(1 - sum(pmf)) * trials]
    observed = [0] * len(expected)
    for tau, count in histogram:
        observed[min(tau, len(pmf))] += count
    bins, seen, due = [], 0, 0.0
    for o, e in zip(observed, expected):
        seen, due = seen + o, due + e
        if due >= 5:
            bins.append([seen, due])
            seen, due = 0, 0.0
    bins[-1][0] += seen
    bins[-1][1] += due
    statistic = sum((o - e) ** 2 / e for o, e in bins)
    return chi2.sf(statistic, len(bins) - 1)


@pytest.mark.parametrize("sim", [simulate_sst, fast_bookmark_sim])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_simulated_tau_law_passes_chi_square(sim, n):
    trials = 20_000
    for k, probs in enumerate([uniform(n), _top_heavy(n), _gappy(n)]):
        stages = stage_probabilities(probs)
        horizon = 3 * math.ceil(sum(1 / p for p in stages))
        pmf = _geometric_sum_pmf(stages, horizon)
        result = sim(probs, trials, seed=100 * n + k)
        p_value = _chi_square_p_value(result.histogram, pmf, trials)
        assert p_value > 1e-3, (probs, p_value)


def test_fast_sim_refuses_a_tau_beyond_exact_counting():
    # the last stage probability is P(1); numpy clamped its draw to 2^63 - 1
    # and the int64 sum wrapped; 2^-56 gives taus of about 2^56, past 2^53
    # but far below the clamp
    for tiny in (Fraction(1, 10**30), Fraction(1, 2**56)):
        with pytest.raises(ValueError, match="2\\^53"):
            fast_bookmark_sim([tiny, 1 - tiny, Fraction(0)], trials=5, seed=1)
    # the same P with a stage probability of 2^-40: every tau stays countable
    small = Fraction(1, 2**40)
    result = fast_bookmark_sim([small, 1 - small, Fraction(0)], trials=5, seed=1)
    assert all(0 < tau < 2**53 and isinstance(tau, int) for tau, _ in result.histogram)
    assert sum(c for _, c in result.histogram) == 5


def test_fast_sim_refuses_a_stage_probability_that_rounds_to_zero(monkeypatch):
    # the last stage probability is P(1); 10^-400 is 0.0 as a float64, where
    # the inverse cdf of the search found no edge above a draw
    drawn = []
    monkeypatch.setattr(simulate, "_geometric", lambda *args: drawn.append(args))
    tiny = Fraction(1, 10**400)
    with pytest.raises(ValueError, match=r"stage b = 2 rounds to 0\.0 in float64"):
        fast_bookmark_sim([tiny, 1 - tiny, Fraction(0)], trials=5, seed=1)
    # with P(2) as small, stage 3 of 4 rounds to 0.0 too; the first such stage is named
    with pytest.raises(ValueError, match="stage b = 2 "):
        fast_bookmark_sim([tiny, tiny, 1 - 2 * tiny, Fraction(0)], trials=5, seed=1)
    with pytest.raises(ValueError, match="stage b = 4 "):
        fast_bookmark_sim([tiny, Fraction(1, 3), Fraction(1, 3), 1 - tiny - Fraction(2, 3), 0], 5, 1)
    assert drawn == []  # refused before any stage was drawn


def test_move_rows_equals_apply_move_row_by_row():
    draws = np.random.default_rng(7)
    for n in range(1, 9):
        rows = 200
        i = draws.integers(1, n + 1, rows)
        j = i + (draws.random(rows) * (n + 1 - i)).astype(np.int64)
        i[:3], j[:3] = (1, 1, n), (n, 1, n)  # whole deck, top and bottom in place
        i[3:6] = j[3:6]
        decks = np.array([draws.permutation(np.arange(1, n + 1)) for _ in range(rows)])
        moved = _move_rows(decks, i, j)
        for r in range(rows):
            deck = decks[r].tolist()
            _apply_move(deck, n, int(i[r]), int(j[r]))
            assert moved[r].tolist() == deck, (n, i[r], j[r])


def _per_trial_reference(probabilities, trials, seed):
    """The reference simulator: one Python loop per trial, each with its own
    Philox generator, drawn in chunks of steps."""
    probs = _validated(probabilities)
    cdf = np.cumsum([float(p) for p in probs])
    n = len(probs)
    chunk = max(32, int(2.5 * n * math.log(n + 1)))
    taus, final_counts = Counter(), Counter()
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        deck = list(range(1, n + 1))
        below = 1
        steps = 0
        while below < n:
            u = rng.random((chunk, 2))
            i_arr = np.minimum(np.searchsorted(cdf, u[:, 0], side="right") + 1, n)
            j_arr = i_arr + (u[:, 1] * (n + 1 - i_arr)).astype(np.int64)
            for i, j in zip(i_arr.tolist(), j_arr.tolist()):
                steps += 1
                below = _apply_move(deck, below, i, j)
                if below == n:
                    break
        taus[steps] += 1
        final_counts[tuple(deck)] += 1
    return _summarize(n, trials, seed, taus, probs, final_counts)


def _assert_same_run(result, reference, record_final):
    assert result.histogram == reference.histogram
    assert result.mean == reference.mean
    if reference.trials > 1:
        assert result.stderr == reference.stderr
    else:
        assert math.isnan(result.stderr) and math.isnan(reference.stderr)
    assert result.final_counts == (reference.final_counts if record_final else None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
def test_lockstep_walk_matches_per_trial_reference(n, monkeypatch):
    seeds = [0, -5, (1 << 63) + 1, (1 << 64) + 3]
    for p_index, probs in enumerate([uniform(n), _top_heavy(n), _gappy(n)]):
        for s_index, seed in enumerate(seeds):
            for trials in (1, 2, 500):
                reference = _per_trial_reference(probs, trials, seed)
                if n == 1:
                    assert reference.histogram == ((0, trials),)
                for record_final in (False, True):
                    result = simulate_sst(probs, trials, seed, record_final)
                    _assert_same_run(result, reference, record_final)
                # a batch of at least `trials` lanes runs the default's single
                # batch; 500 one-lane or 13-lane batches take seconds, so those
                # cells rotate over P and seed as n varies, with record_final
                if trials == 2:
                    cells = [(1, False), (1, True)]
                elif trials == 500 and (p_index, s_index) == (n % 3, n % 4):
                    cells = [(13, True), (1, True)] if n <= 4 else [(13, True)]
                else:
                    cells = []
                for lanes, record_final in cells:
                    with monkeypatch.context() as patched:
                        patched.setattr(simulate, "SST_LANES", lanes)
                        result = simulate_sst(probs, trials, seed, record_final)
                    _assert_same_run(result, reference, record_final)
