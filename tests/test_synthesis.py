"""Unit tests for the cyclic-synthesis combinatorics and rate bounds."""

import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbound import numeric, synthesis
from gvbound.errors import DomainError, SizeLimitError
from gvbound.numeric import entropy
from gvbound.synthesis import (
    ALPHABET,
    ball_rate_upper,
    capacity,
    count_pairs_bruteforce,
    count_pairs_exact,
    count_words_by_time,
    count_words_exact,
    critical_point,
    delta_max,
    gv_rate,
    pair_count_table,
    simple_lb_rate,
    synthesis_time,
)
from table_checks import log2_of, worst_log2_error


# -------------------------------------------------------------- synthesis time


def test_synthesis_time_examples():
    assert synthesis_time("CTACG") == 7
    assert synthesis_time("AGTA") == 5
    assert synthesis_time("CTT") == 8
    assert synthesis_time("") == 0
    assert synthesis_time("ACGT") == 4
    assert synthesis_time("TTTT") == 16


def test_synthesis_time_bounds_hold_everywhere():
    for n in range(1, 6):
        for letters in product(ALPHABET, repeat=n):
            t = synthesis_time("".join(letters))
            assert n <= t <= 4 * n


def test_synthesis_time_rejects_bad_symbols():
    with pytest.raises(DomainError):
        synthesis_time("ACGX")


# ----------------------------------------------------------------- word counts


def test_count_words_exact_small_cases():
    assert count_words_exact(1, 4) == 4
    assert count_words_exact(1, 2) == 2
    assert count_words_exact(2, 8) == 16
    assert count_words_exact(0, 0) == 1


def test_count_words_by_time_matches_enumeration():
    for n in range(1, 6):
        counts = count_words_by_time(n)
        assert len(counts) == 4 * n + 1
        observed = [0] * (4 * n + 1)
        for letters in product(ALPHABET, repeat=n):
            observed[synthesis_time("".join(letters))] += 1
        assert counts == observed


def test_count_words_mass_identity():
    for n in (10, 20, 30):
        assert sum(count_words_by_time(n)) == 4**n


# ----------------------------------------------------------------- pair counts


def test_count_pairs_exact_small_cases():
    assert count_pairs_exact(1, 2, 0) == 1
    assert count_pairs_exact(1, 5, 1) == 4
    total = sum(
        count_pairs_exact(1, t, s) for t in range(0, 9) for s in range(0, 2)
    )
    assert total == 16
    assert count_pairs_exact(0, 0, 0) == 1


def test_count_pairs_exact_support_edges():
    # the support guard is inclusive at t = 2n, t = 8n and s = n
    assert count_pairs_exact(3, 6, 0) == 1  # ACG against itself
    assert count_pairs_exact(3, 24, 0) == 1  # TTT against itself
    assert count_pairs_exact(3, 5, 0) == 0
    assert count_pairs_exact(3, 25, 0) == 0
    assert count_pairs_exact(3, 15, 3) == count_pairs_bruteforce(3, 15, 3) > 0
    with pytest.raises(DomainError):
        count_pairs_exact(-1, 0, 0)
    with pytest.raises(DomainError):
        count_pairs_exact(3, 0, 0, mode="linear")


# (10**5, 0, 0): a table for n = 10**5 would exceed TABLE_CELL_BUDGET
@pytest.mark.parametrize(
    "args", [(40, -1, 0), (40, 10**4, 0), (40, 0, 0), (40, 80, 41), (40, 79, 0), (10**5, 0, 0)]
)
def test_count_pairs_exact_outside_support_builds_no_table(monkeypatch, args):
    def build_never(*args):
        raise AssertionError("built a table for a bucket outside the support")

    monkeypatch.setattr(synthesis, "pair_count_table", build_never)
    assert count_pairs_exact(*args) == 0
    assert count_pairs_exact(*args, mode="log2") == -math.inf


def test_count_pairs_bruteforce_small_cases():
    assert count_pairs_bruteforce(2, 4, 0) == 1
    with pytest.raises(SizeLimitError):
        count_pairs_bruteforce(7, 20, 3)


def _nested_loop_histogram(n):
    strands = ["".join(w) for w in product(ALPHABET, repeat=n)]
    hist = {}
    for u in strands:
        for v in strands:
            key = (synthesis_time(u) + synthesis_time(v), sum(a != b for a, b in zip(u, v)))
            hist[key] = hist.get(key, 0) + 1
    return hist


@pytest.mark.parametrize("n", range(0, 4))
def test_bruteforce_matches_nested_loop_definition(n):
    hist = _nested_loop_histogram(n)
    for t in range(0, 8 * n + 1):
        for s in range(0, n + 1):
            assert count_pairs_bruteforce(n, t, s) == hist.get((t, s), 0), (n, t, s)


def test_bruteforce_mass_and_out_of_support_buckets():
    for n in range(0, 6):
        mass = sum(
            count_pairs_bruteforce(n, t, s)
            for t in range(0, 8 * n + 1)
            for s in range(0, n + 1)
        )
        assert mass == 16**n, n
        for t, s in ((-1, 0), (0, -1), (2 * n - 1, 0), (8 * n + 1, 0), (2 * n, n + 1)):
            assert count_pairs_bruteforce(n, t, s) == 0, (n, t, s)


def test_bruteforce_size_limit_comes_before_enumeration(monkeypatch):
    def enumerate_never(n):
        raise AssertionError("enumerated past the size limit")

    monkeypatch.setattr(synthesis, "_bruteforce_histogram", enumerate_never)
    with pytest.raises(SizeLimitError):
        count_pairs_bruteforce(7, 20, 3)


def test_pair_counts_match_bruteforce_up_to_n4():
    for n in range(0, 5):
        table = pair_count_table(n)
        for t in range(0, 8 * n + 1):
            for s in range(0, n + 1):
                assert table.count(t, s) == count_pairs_bruteforce(n, t, s), (n, t, s)


def test_pair_mass_identity():
    for n in (8, 14, 20):
        table = pair_count_table(n)
        assert table.total(8 * n, n) == 16**n


@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, 8))
@example(n=0)
@example(n=6)
@example(n=8)
def test_log_mode_tracks_exact_counts(n):
    exact = pair_count_table(n, "exact")
    logs = pair_count_table(n, "log2")
    cells = zip(exact.entries.ravel().tolist(), logs.entries.ravel().tolist())
    sums = [(exact.count(t, s), logs.count(t, s)) for t in range(8 * n + 1) for s in range(n + 1)]
    for count, value in [*cells, *sums]:
        if count == 0:
            assert value == -math.inf
        else:
            assert value == pytest.approx(math.log2(count), abs=1e-10)


@pytest.mark.parametrize("n", range(13))
def test_small_log2_tables_are_log2_of_the_exact_counts_bit_for_bit(n):
    # every count is at most 16^12 = 2^48 < 2^53, so each linear float64 sum is exact
    exact = pair_count_table(n, "exact").entries
    assert np.array_equal(pair_count_table(n, "log2").entries, log2_of(exact))


@pytest.mark.parametrize("cutoff", [1000, -1])
def test_both_log2_paths_track_the_exact_counts(monkeypatch, linear_adds, cutoff):
    # a cutoff of -1 forces the logaddexp2 path on every table
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", cutoff)
    exact = pair_count_table(40, "exact").entries
    logs = pair_count_table(40, "log2").entries
    assert bool(linear_adds) == (cutoff == 1000)
    assert worst_log2_error(logs, exact) <= 1e-12


@pytest.mark.parametrize("cutoff, linear", [(20, True), (19, False)])
def test_log2_tables_sum_linear_counts_up_to_the_cutoff(monkeypatch, linear_adds, cutoff, linear):
    # the n = 5 table bounds its counts by 16^5 = 2^20
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", cutoff)
    logs = pair_count_table(5, "log2").entries
    assert bool(linear_adds) == linear
    assert worst_log2_error(logs, pair_count_table(5, "exact").entries) <= 1e-12


def _pairs_by_rank_difference(n):
    """Ordered strand pairs by (rank(u_n) - rank(v_n) mod 4, combined time, distance)."""
    strands = ["".join(w) for w in product(ALPHABET, repeat=n)]
    last_rank = {w: ALPHABET.index(w[-1]) if w else 0 for w in strands}
    counts = Counter()
    for u in strands:
        for v in strands:
            d = (last_rank[u] - last_rank[v]) % 4
            dist = sum(a != b for a, b in zip(u, v))
            counts[d, synthesis_time(u) + synthesis_time(v), dist] += 1
    return counts


@pytest.mark.parametrize("n", range(5))
def test_entries_match_enumeration_by_rank_difference(n):
    # the kernel computes d = 0, 1, 2 and copies d = 1 to d = 3, so check
    # every d slab, d = 3 included, against enumeration
    entries = pair_count_table(n).entries
    counts = _pairs_by_rank_difference(n)
    assert sum(counts.values()) == 16**n
    for (d, t, s), value in np.ndenumerate(entries):
        assert value == counts.get((d, t, s), 0), (n, d, t, s)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(0, 30), mode=st.sampled_from(["exact", "log2"]))
@example(n=30, mode="exact")
@example(n=30, mode="log2")
def test_rank_difference_symmetry_and_mass_identities(n, mode):
    # swapping the words maps d to -d; summed over d and t, the pairs at
    # distance s number 4^n C(n, s) 3^s, and 16^n in all
    table = pair_count_table(n, mode)
    entries = table.entries
    assert np.array_equal(entries[1], entries[3])
    marginals = [table.mode.sum(entries[:, :, s]) for s in range(n + 1)]
    wants = [4**n * math.comb(n, s) * 3**s for s in range(n + 1)]
    total = table.total(8 * n, n)
    if mode == "exact":
        assert marginals == wants
        assert total == 16**n
    else:
        assert marginals == pytest.approx([math.log2(w) for w in wants], abs=1e-12)
        assert total == pytest.approx(4.0 * n, abs=1e-12)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(0, 12), mode=st.sampled_from(["exact", "log2"]))
@example(n=0, mode="log2")
@example(n=1, mode="exact")
@example(n=12, mode="log2")
def test_table_vanishes_outside_the_support(n, mode):
    # the banded kernel reads only t in [2k, 8k], s <= k of each level k,
    # so every other entry must be exactly the mode's zero
    zero = 0 if mode == "exact" else -math.inf
    entries = pair_count_table(n, mode).entries
    for (d, t, s), value in np.ndenumerate(entries):
        if not (2 * n <= t <= 8 * n and s <= n):
            assert value == zero, (n, d, t, s, value)


def test_table_count_bounds():
    # any bucket outside the structural ranges t <= 8n, s <= n is empty
    table = pair_count_table(3)
    assert table.count(-1, 0) == 0
    assert table.count(0, -1) == 0
    assert table.count(25, 0) == 0
    assert table.count(0, 4) == 0
    # the unique slowest pair is the all-T strand against itself
    assert table.count(24, 0) == 1


# -------------------------------------------------------------------- capacity


def test_capacity_anchor_values():
    assert capacity(2.5) == pytest.approx(2.0, abs=1e-15)
    assert capacity(4.0) == 2.0
    assert capacity(1.5) == pytest.approx(1.356343561746467, abs=1e-12)
    assert capacity(2.0) == pytest.approx(1.8522859940752379, abs=1e-12)
    assert capacity(2.25) == pytest.approx(1.9637256518458055, abs=1e-12)


def test_capacity_monotone_nondecreasing():
    values = [capacity(1.0 + 0.05 * k) for k in range(1, 40)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_capacity_matches_counting():
    n = 100
    count = count_words_exact(n, 2 * n)
    assert abs(math.log2(count) / n - capacity(2.0)) <= 0.1


def test_capacity_rejects_trivial_budget():
    with pytest.raises(DomainError):
        capacity(1.0)
    with pytest.raises(DomainError):
        capacity(0.5)


# -------------------------------------------------------------- critical point


def test_denominator_at_z_one_is_one_minus_x_times_the_squared_word_series():
    # summing z out gives 1 - x (y + y^2 + y^3 + y^4)^2, term by term
    by_power = Counter()
    for (ex, ey, _), c in synthesis.pair_generating_denominator().terms:
        by_power[ex, ey] += c
    square = np.convolve([0, 1, 1, 1, 1], [0, 1, 1, 1, 1])
    want = {(0, 0): 1.0} | {(1, k): -float(c) for k, c in enumerate(square) if c}
    assert dict(by_power) == want


def test_denominator_equals_its_factored_form():
    H = synthesis.pair_generating_denominator()
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = (rng.uniform(-2.0, 2.0) for _ in range(3))
        factored = 1.0 - x * y**2 * (1.0 + y**2) * ((1.0 + y**4) + 2.0 * z * y * (1.0 + y + y**2))
        assert H((x, y, z)) == pytest.approx(factored, rel=1e-12, abs=1e-9)


def test_critical_point_known_values():
    cp = critical_point(2.0, 0.1)
    assert cp.z[0] == pytest.approx(0.6154638681151996, abs=1e-12)
    assert cp.z[1] == pytest.approx(0.797626472469517, abs=1e-12)
    assert cp.z[2] == pytest.approx(0.04020121870895154, abs=1e-12)
    assert cp.residual_norm <= 1e-9


# (tau, delta) on the smooth branch: 1 < tau < 5/2, 0 < delta < delta_max(tau);
# critical_point rejects delta = 5e-324 (test_critical_point_rejects_out_of_range)
SMOOTH_POINTS = st.floats(1.0, 2.5, exclude_min=True, exclude_max=True).flatmap(
    lambda tau: st.tuples(
        st.just(tau), st.floats(1e-323, delta_max(tau)[0], exclude_max=True)
    )
)


@settings(max_examples=100, deadline=None)
@given(point=SMOOTH_POINTS)
@example(point=(2.0, 0.3))
@example(point=(1.5, 0.1))
def test_smooth_ball_rate_is_critical_point_growth(point):
    # the record's growth exponent sums its terms in the order written here
    tau, delta = point
    p = synthesis.evaluate_point(tau, delta)
    assert p.branch == "smooth"
    x, y, z = p.critical_point.z
    assert p.ball_rate_upper == -math.log2(x) - 2.0 * tau * math.log2(y) - delta * math.log2(z)


def test_critical_point_residuals_on_grid():
    for tau in (1.5, 2.0):
        dm, _ = delta_max(tau)
        delta = 0.05
        while delta < dm:
            cp = critical_point(tau, delta)
            assert cp.residual_norm <= 1e-9, (tau, delta)
            delta += 0.05


def test_critical_point_rejects_out_of_range():
    with pytest.raises(DomainError):
        critical_point(2.0, 0.0)
    with pytest.raises(DomainError):
        critical_point(2.0, 1.0)
    with pytest.raises(DomainError):
        critical_point(1.0, 0.1)
    # the smallest subnormal delta: z ~ delta / 3 underflows to 0
    with pytest.raises(DomainError):
        critical_point(2.0, 5e-324)


def test_critical_point_time_mark_hits_one_at_full_budget():
    # at tau = 5/2 the cycle budget stops binding and the time variable
    # lands exactly on the unit circle
    assert critical_point(2.5, 0.1).z[1] == pytest.approx(1.0, abs=1e-9)


def test_critical_point_distance_mark_crosses_one_at_saturation():
    # below delta_max the distance variable sits inside the unit circle,
    # above it the algebraic point continues with z > 1
    dm, _ = delta_max(2.0)
    assert critical_point(2.0, dm - 0.01).z[2] < 1.0
    assert critical_point(2.0, dm + 0.01).z[2] > 1.0


def test_delta_max_values():
    known = {
        1.5: 0.5165884174655024,
        1.75: 0.6282019197843406,
        2.0: 0.698304126368074,
        2.25: 0.7373985767967745,
    }
    for tau, expected in known.items():
        dm, _ = delta_max(tau)
        assert dm == pytest.approx(expected, abs=1e-9)
    values = [delta_max(tau)[0] for tau in (1.5, 1.75, 2.0, 2.25)]
    for a, b in zip(values, values[1:]):
        assert b > a


def test_delta_max_root_matches_capacity_root():
    # the distance mark leaves the picture exactly when the remaining
    # one-word system degenerates to the capacity equation
    for tau in (1.5, 2.0, 2.25):
        dm, y_min = delta_max(tau)
        cp = critical_point(tau, dm - 1e-9)
        assert abs(cp.z[2] - 1.0) <= 1e-6
        assert ball_rate_upper(tau, dm) == pytest.approx(
            2.0 * capacity(tau), abs=1e-9
        )


# ----------------------------------------------------------------- rate curves


def test_ball_rate_upper_saturated_time_branch():
    # with tau >= 5/2 every word is producible and the count is a plain
    # Hamming ball over the quaternary alphabet
    assert ball_rate_upper(3.0, 0.5) == pytest.approx(
        2.0 + entropy(0.5) + 0.5 * math.log2(3.0), abs=1e-12
    )
    assert ball_rate_upper(3.0, 0.75) == pytest.approx(4.0, abs=1e-12)
    assert ball_rate_upper(3.0, 0.9) == 4.0
    assert ball_rate_upper(2.5, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_ball_rate_upper_time_limited_branch():
    assert ball_rate_upper(2.0, 0.0) == pytest.approx(capacity(2.0), abs=1e-12)
    dm, _ = delta_max(2.0)
    assert ball_rate_upper(2.0, 0.73) == pytest.approx(
        2.0 * capacity(2.0), abs=1e-12
    )
    mid = ball_rate_upper(2.0, 0.3)
    assert capacity(2.0) < mid < 2.0 * capacity(2.0)


def test_ball_rate_upper_continuous_at_knee():
    for tau in (1.5, 2.0, 2.25):
        dm, _ = delta_max(tau)
        below = ball_rate_upper(tau, dm - 1e-9)
        above = ball_rate_upper(tau, dm + 1e-9)
        assert abs(below - above) <= 1e-6


def test_gv_rate_values():
    assert gv_rate(2.0, 0.1) == pytest.approx(1.235797150628474, abs=1e-10)
    assert gv_rate(2.0, 0.3) == pytest.approx(0.5343209657080084, abs=1e-10)
    dm, _ = delta_max(2.0)
    assert gv_rate(2.0, dm) == 0.0
    assert gv_rate(2.0, 0.74) == 0.0


def test_gv_rate_dominates_simple_lb():
    # delta runs past 3/4, where the crude ball estimate outgrows the 4^n strands
    for tau in (1.5, 2.0, 2.5, 3.0):
        for k in range(0, 21):
            delta = 0.05 * k
            assert gv_rate(tau, delta) >= simple_lb_rate(tau, delta) - 1e-9


@settings(max_examples=200, deadline=None)
@given(
    tau=st.floats(1.0, 4.0, exclude_min=True),
    deltas=st.tuples(st.floats(1e-323, 1.0), st.floats(1e-323, 1.0)),
)
@example(tau=2.0, deltas=(0.0, 1e-300))
@example(tau=1.2012820512820515, deltas=(0.0, 1e-323))
@example(tau=3.0, deltas=(0.75 - 1e-12, 0.75))
def test_ball_rate_upper_nondecreasing_in_delta(tau, deltas):
    # deltas start at 1e-323: at 5e-324 the critical point underflows (see below).
    # Up to rounding: adjacent floats, or delta 0 against 1e-323, fall by up to 8.9e-16.
    lo, hi = sorted(deltas)
    assert ball_rate_upper(tau, lo) <= ball_rate_upper(tau, hi) + 1e-12


def test_simple_lb_rate_values():
    assert simple_lb_rate(2.0, 0.0) == pytest.approx(capacity(2.0), abs=1e-15)
    assert simple_lb_rate(2.0, 0.1) == pytest.approx(1.2247941504138409, abs=1e-12)
    assert simple_lb_rate(3.0, 0.75) == 0.0
    assert simple_lb_rate(3.0, 0.9) == 0.0  # Plotkin: no positive rate past 3/4 at q = 4
