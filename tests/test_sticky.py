"""Unit tests for the duplication-channel combinatorics and rate bounds."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbound import cli, numeric, sticky
from gvbound.acsv import growth_exponent
from gvbound.errors import DimensionMismatchError, DomainError, MemoryBudgetError, SizeLimitError
from gvbound.numeric import binomial_exact, entropy
from gvbound.sticky import (
    Composition,
    beta_max,
    ball_rate,
    compositions,
    confusable_bruteforce,
    count_pairs_bruteforce,
    count_pairs_exact,
    critical_point_closed_form,
    gv_rate,
    is_confusable,
    iter_pair_layers,
    l1_distance,
    leading_pair_count_log2,
    pair_count_table,
    pair_generating_denominator,
    pair_generating_numerator,
    simple_lb_rate,
    sp_rate,
)
from table_checks import (
    assert_matches_exact,
    log2_of,
    sticky_layers_by_full_slabs,
    worst_log2_error,
)


# ---------------------------------------------------------------- compositions


def test_composition_validates_parts():
    c = Composition((2, 1, 3))
    assert c.n == 6
    assert c.r == 3
    with pytest.raises(DomainError):
        Composition((2, 0, 3))


def test_compositions_enumeration_count():
    for n in range(1, 10):
        for r in range(1, n + 1):
            got = list(compositions(n, r))
            assert len(got) == binomial_exact(n - 1, r - 1)
            assert len(set(c.parts for c in got)) == len(got)
            assert all(c.n == n and c.r == r for c in got)
    assert list(compositions(3, 5)) == []
    assert list(compositions(3, 0)) == []


def _compositions_by_recursion(n, r):
    # the first part ascending, then the compositions of the rest
    if r == 1:
        if n >= 1:
            yield (n,)
        return
    if r > 1:
        for first in range(1, n - r + 2):
            for rest in _compositions_by_recursion(n - first, r - 1):
                yield (first,) + rest


def test_compositions_follow_the_recursive_order():
    for n in range(0, 10):
        for r in range(0, 11):
            got = [c.parts for c in compositions(n, r)]
            assert got == list(_compositions_by_recursion(n, r)), (n, r)


def test_l1_distance_examples():
    assert l1_distance(Composition((2, 3)), Composition((1, 4))) == 2
    assert l1_distance(Composition((1, 1, 3)), Composition((3, 1, 1))) == 4
    assert l1_distance(Composition((2, 2)), Composition((2, 2))) == 0


def test_l1_distance_requires_equal_run_count():
    with pytest.raises(DimensionMismatchError):
        l1_distance(Composition((2, 3)), Composition((5,)))


# --------------------------------------------------------------- confusability


def test_is_confusable_is_l1_threshold():
    u = Composition((2, 3))
    v = Composition((1, 4))
    assert is_confusable(u, v, 1)
    assert not is_confusable(u, v, 0)


def test_confusable_matches_bruteforce_on_small_space():
    """The L1 criterion agrees with shared-inflation enumeration."""
    space = list(compositions(6, 3))
    for b in (0, 1, 2):
        for u in space:
            for v in space:
                assert is_confusable(u, v, b) == confusable_bruteforce(u, v, b)


def test_confusable_relation_properties():
    rng = random.Random(11)
    space = list(compositions(9, 4))
    for _ in range(50):
        u = rng.choice(space)
        v = rng.choice(space)
        b = rng.randrange(0, 4)
        assert is_confusable(u, u, b)
        assert is_confusable(u, v, b) == is_confusable(v, u, b)
        if is_confusable(u, v, b):
            assert is_confusable(u, v, b + 1)


# ---------------------------------------------------------------- pair counts


def test_count_pairs_exact_small_cases():
    assert count_pairs_exact(3, 3, 2, 0) == 2
    assert count_pairs_exact(3, 3, 2, 2) == 2
    assert count_pairs_exact(2, 2, 2, 0) == 1
    assert count_pairs_exact(3, 3, 2, 1) == 0
    assert count_pairs_exact(0, 0, 0, 0) == 1
    assert count_pairs_exact(2, 2, 1, -1) == 0


def test_count_pairs_bruteforce_small_cases():
    total = sum(count_pairs_bruteforce(4, 4, 2, s) for s in range(0, 9))
    assert total == 9
    assert count_pairs_bruteforce(5, 4, 3, 1) == count_pairs_exact(5, 4, 3, 1)


def test_count_pairs_bruteforce_rejects_large_spaces():
    with pytest.raises(SizeLimitError):
        count_pairs_bruteforce(60, 60, 30, 4)


def test_bruteforce_matches_nested_loop_definition():
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            for r in range(1, min(n1, n2) + 1):
                hist = {}
                for u in compositions(n1, r):
                    for v in compositions(n2, r):
                        d = l1_distance(u, v)
                        hist[d] = hist.get(d, 0) + 1
                for s in range(-1, n1 + n2 + 2):
                    assert count_pairs_bruteforce(n1, n2, r, s) == hist.get(s, 0), (
                        n1, n2, r, s,
                    )


def test_bruteforce_mass_and_out_of_support_buckets():
    for n1 in range(0, 9):
        for n2 in range(0, 9):
            for r in range(1, min(n1, n2) + 1):
                mass = sum(count_pairs_bruteforce(n1, n2, r, s) for s in range(n1 + n2 + 1))
                assert mass == binomial_exact(n1 - 1, r - 1) * binomial_exact(n2 - 1, r - 1)
    for args in ((4, 4, 2, -1), (4, 4, 2, 9), (4, 4, 5, 0), (3, 5, 4, 2), (-1, 2, 1, 0)):
        assert count_pairs_bruteforce(*args) == 0, args


def test_bruteforce_size_limit_comes_before_enumeration(monkeypatch):
    def enumerate_never(*args):
        raise AssertionError("enumerated past the size limit")

    monkeypatch.setattr(sticky, "_bruteforce_histogram", enumerate_never)
    monkeypatch.setattr(sticky, "compositions", enumerate_never)
    with pytest.raises(SizeLimitError):
        count_pairs_bruteforce(60, 60, 30, 4)


@pytest.mark.parametrize("args", [(3, 3, 2, 10**6), (3, 3, 2, 10**8), (3, 3, 10**6, 0)])
def test_count_pairs_exact_outside_support_builds_no_table(monkeypatch, args):
    def build_never(*args):
        raise AssertionError("built a table for a bucket outside the support")

    monkeypatch.setattr(sticky, "pair_count_table", build_never)
    assert count_pairs_exact(*args) == 0
    assert count_pairs_exact(*args, mode="log2") == -math.inf


def test_direct_sums_match_bruteforce_up_to_n7():
    # r = 0 and r > min(n1, n2) included, one s past the largest distance
    for n1 in range(8):
        for n2 in range(8):
            for r in range(8):
                for s in range(n1 + n2 + 2):
                    want = count_pairs_bruteforce(n1, n2, r, s)
                    assert count_pairs_exact(n1, n2, r, s) == want, (n1, n2, r, s)
                    log2 = count_pairs_exact(n1, n2, r, s, mode="log2")
                    assert log2 == (math.log2(want) if want else -math.inf), (n1, n2, r, s)


def _count_by_inclusion_exclusion(n1, n2, r, s):
    """The pair count from the alternating expansion of ((1 - ab) / ((1 - a)(1 - b)))^r.

    With M = (n1 + n2 - s)/2, P = n1 - M and Q = n2 - M, the count is
    C(M - 1, r - 1) sum_j (-1)^j C(r, j) C(P - j + r - 1, r - 1) C(Q - j + r - 1, r - 1).
    """
    m = (n1 + n2 - s) // 2
    p, q = n1 - m, n2 - m

    def weak(total):  # weak compositions of total into r parts
        return math.comb(total + r - 1, r - 1)

    return math.comb(m - 1, r - 1) * sum(
        (-1) ** j * math.comb(r, j) * weak(p - j) * weak(q - j) for j in range(min(p, q) + 1)
    )


def test_large_counts_are_summed_without_a_table(monkeypatch):
    def build_never(*args):
        raise AssertionError("built a table for a single count")

    monkeypatch.setattr(sticky, "pair_count_table", build_never)
    monkeypatch.setattr(sticky, "_tables", build_never)
    start = time.perf_counter()
    count = count_pairs_exact(400, 400, 200, 100)
    elapsed = time.perf_counter() - start
    assert count == _count_by_inclusion_exclusion(400, 400, 200, 100)
    assert count_pairs_exact(400, 400, 200, 100, mode="log2") == math.log2(count)
    assert elapsed < 0.5  # a few ms: one sum of at most 51 terms


def test_count_pairs_exact_keeps_the_table_cell_budget(monkeypatch):
    # 1001 * 1001 * 101 cells exceed the budget, as a table of these sizes would
    def sum_never(*args):
        raise AssertionError("summed past the cell budget")

    monkeypatch.setattr(sticky, "_compositions_count", sum_never)
    for mode in ("exact", "log2"):
        with pytest.raises(MemoryBudgetError):
            count_pairs_exact(1000, 1000, 500, 100, mode=mode)
        with pytest.raises(MemoryBudgetError):  # an odd distance too: the budget comes first
            count_pairs_exact(1000, 1000, 500, 101, mode=mode)


def test_pair_count_symmetry():
    table_a = pair_count_table(7, 5, 3, 12)
    table_b = pair_count_table(5, 7, 3, 12)
    for s in range(0, 13):
        assert table_a.count(7, 5, s) == table_b.count(5, 7, s)


def test_pair_mass_identity_moderate_n():
    n_max = 30
    for table in iter_pair_layers(n_max, n_max, n_max, 2 * n_max, "exact"):
        r = table.r
        for n in range(r, n_max + 1):
            mass = sum(table.entries[n, n, :].tolist())
            assert mass == binomial_exact(n - 1, r - 1) ** 2


@settings(max_examples=40, deadline=None)
@given(
    n1_max=st.integers(0, 8),
    n2_max=st.integers(0, 8),
    r_max=st.integers(1, 8),
    s_max=st.integers(0, 8),
)
@example(n1_max=10, n2_max=10, r_max=4, s_max=20)
@example(n1_max=7, n2_max=4, r_max=3, s_max=6)
@example(n1_max=6, n2_max=6, r_max=4, s_max=0)
@example(n1_max=3, n2_max=5, r_max=7, s_max=8)
@example(n1_max=0, n2_max=0, r_max=1, s_max=0)
@example(n1_max=0, n2_max=3, r_max=3, s_max=2)
def test_log_mode_tracks_exact_counts(n1_max, n2_max, r_max, s_max):
    shape = (n1_max, n2_max, r_max, s_max)
    for exact, logs in zip(iter_pair_layers(*shape, "exact"), iter_pair_layers(*shape, "log2")):
        cells = zip(exact.entries.ravel().tolist(), logs.entries.ravel().tolist())
        totals = (exact.total(n1_max, n2_max, s_max), logs.total(n1_max, n2_max, s_max))
        for count, value in [*cells, totals]:
            if count == 0:
                assert value == -math.inf
            else:
                assert value == pytest.approx(math.log2(count), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    n1_max=st.integers(0, 10),
    n2_max=st.integers(0, 10),
    r_max=st.integers(1, 10),
    s_max=st.integers(0, 20),
)
@example(n1_max=10, n2_max=10, r_max=10, s_max=20)
@example(n1_max=10, n2_max=9, r_max=5, s_max=20)
def test_small_log2_tables_are_log2_of_the_exact_counts_bit_for_bit(n1_max, n2_max, r_max, s_max):
    # a log2 table is numpy.log2 of the float64 exact counts below 2^1000
    shape = (n1_max, n2_max, r_max, s_max)
    layers = zip(iter_pair_layers(*shape, "exact"), iter_pair_layers(*shape, "log2"))
    for exact, logs in layers:
        assert np.array_equal(logs.entries, log2_of(exact.entries)), exact.r
    # exact is now layer r_max, the one pair_count_table converts on its own
    assert np.array_equal(pair_count_table(*shape, "log2").entries, log2_of(exact.entries))


@pytest.mark.parametrize("cutoff", [1000, -1])
@pytest.mark.parametrize("shape", [(30, 30, 15, 40), (24, 36, 12, 60), (96, 97, 48, 24)])
def test_both_log2_paths_track_the_exact_counts(monkeypatch, cutoff, shape):
    # a cutoff of -1 takes math.log2 of each nonzero exact count on every table
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", cutoff)
    exact = pair_count_table(*shape, "exact").entries
    logs = pair_count_table(*shape, "log2").entries
    if cutoff == 1000:
        assert np.array_equal(logs, log2_of(exact))
    else:
        assert np.array_equal(logs == -math.inf, exact == 0)
        assert worst_log2_error(logs, exact) <= 1e-12


@pytest.mark.parametrize("cutoff, table_mode", [(1000, "linear"), (-1, "log2")])
def test_log2_tables_are_allocated_in_their_accumulator_mode(monkeypatch, cutoff, table_mode):
    # no log2 table holds an object copy of itself: only the D_r plane is exact
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", cutoff)
    blanks = []
    blank = numeric.CountMode.blank

    def recorded(mode, shape):
        blanks.append((mode.name, shape))
        return blank(mode, shape)

    monkeypatch.setattr(numeric.CountMode, "blank", recorded)
    list(iter_pair_layers(30, 24, 3, 40, "log2"))
    assert [name for name, shape in blanks if shape == (31, 25, 41)] == [table_mode] * 3
    assert [shape for name, shape in blanks if name == "exact"] == [(31, 25)]


def test_log2_tables_past_float64_are_log2_of_the_exact_counts(monkeypatch):
    # the diagonal count C(1039, 519) is about 2^1033.7, past the largest float64
    shape = (1040, 1040, 520, 0)
    logs = pair_count_table(*shape, "log2")
    assert logs.count(1040, 1040, 0) == math.log2(math.comb(1039, 519))
    exact = pair_count_table(*shape, "exact").entries
    assert np.array_equal(logs.entries == -math.inf, exact == 0)
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", 10**6)
    with pytest.raises(OverflowError):  # the float64 route cannot hold these counts
        pair_count_table(*shape, "log2")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 12),
    r_max=st.integers(1, 12),
    s_max=st.integers(0, 24),
    mode=st.sampled_from(["exact", "log2"]),
)
@example(n=12, r_max=6, s_max=24, mode="exact")
@example(n=12, r_max=6, s_max=7, mode="log2")
def test_square_layers_are_symmetric_and_match_the_rectangular_kernel(n, r_max, s_max, mode):
    # one column wider, the D_r plane gains a column and every M plane
    # writes more cells, and the shared block must agree
    square = iter_pair_layers(n, n, r_max, s_max, mode)
    wide = iter_pair_layers(n, n + 1, r_max, s_max, mode)
    for table, wider in zip(square, wide):
        entries = table.entries
        assert np.array_equal(entries, entries.transpose(1, 0, 2)), table.r
        assert np.array_equal(entries, wider.entries[:, : n + 1, :]), table.r


@settings(max_examples=25, deadline=None)
@given(
    n1_max=st.integers(0, 12),
    n2_max=st.integers(0, 12),
    r_max=st.integers(1, 14),
    s_max=st.integers(0, 26),
    mode=st.sampled_from(["exact", "log2"]),
)
@example(n1_max=12, n2_max=5, r_max=6, s_max=17, mode="exact")
@example(n1_max=3, n2_max=11, r_max=5, s_max=9, mode="log2")
def test_swapping_the_words_transposes_every_layer(n1_max, n2_max, r_max, s_max, mode):
    # P runs along n1 and Q along n2, so a swap exchanges the axes of D_r
    layers = iter_pair_layers(n1_max, n2_max, r_max, s_max, mode)
    swapped = iter_pair_layers(n2_max, n1_max, r_max, s_max, mode)
    for table, other in zip(layers, swapped, strict=True):
        assert np.array_equal(table.entries, other.entries.transpose(1, 0, 2)), table.r


@settings(max_examples=30, deadline=None)
@given(
    n1_max=st.integers(0, 24),
    n2_max=st.integers(0, 24),
    r_max=st.integers(1, 26),
    s_max=st.integers(0, 50),
    mode=st.sampled_from(["exact", "log2"]),
)
@example(n1_max=24, n2_max=24, r_max=24, s_max=48, mode="exact")
@example(n1_max=24, n2_max=24, r_max=13, s_max=30, mode="log2")
@example(n1_max=24, n2_max=9, r_max=11, s_max=33, mode="log2")
@example(n1_max=9, n2_max=24, r_max=11, s_max=20, mode="exact")
def test_layers_match_the_full_slab_kernel(n1_max, n2_max, r_max, s_max, mode):
    # the reference sums M1, M2 and P in full, with no symmetry or triangle
    shape = (n1_max, n2_max, r_max, s_max)
    layers = zip(iter_pair_layers(*shape, mode), sticky_layers_by_full_slabs(*shape), strict=True)
    for table, exact in layers:
        assert_matches_exact(table.entries, exact, mode, n1_max + n2_max + 2)


def _composition_pairs(n1, n2, r):
    """|S(n1, r)| * |S(n2, r)|: compositions of n into r parts number C(n-1, r-1)."""
    return math.comb(n1 - 1, r - 1) * math.comb(n2 - 1, r - 1) if n1 and n2 else 0


@settings(max_examples=25, deadline=None)
@given(
    n1_max=st.integers(0, 14),
    n2_max=st.integers(0, 14),
    r_max=st.integers(1, 14),
    mode=st.sampled_from(["exact", "log2"]),
)
@example(n1_max=14, n2_max=14, r_max=14, mode="log2")
@example(n1_max=14, n2_max=3, r_max=4, mode="exact")
def test_layer_masses_are_products_of_composition_counts(n1_max, n2_max, r_max, mode):
    # summed over every distance, a layer counts all pairs in S(n1, r) x S(n2, r)
    s_max = n1_max + n2_max
    for table in iter_pair_layers(n1_max, n2_max, r_max, s_max, mode):
        for n1 in range(n1_max + 1):
            for n2 in range(n2_max + 1):
                mass = table.total(n1, n2, s_max)
                want = _composition_pairs(n1, n2, table.r)
                if mode == "exact":
                    assert mass == want, (table.r, n1, n2)
                elif want == 0:
                    assert mass == -math.inf, (table.r, n1, n2)
                else:
                    assert mass == pytest.approx(math.log2(want), abs=1e-12), (table.r, n1, n2)


def _outside_sticky_support(n1, n2, r, s):
    """Whether no composition pair of r parts has sizes (n1, n2) and L1 distance s."""
    top = abs(n1 - n2) if r == 1 else n1 + n2 - 2 * r  # one part each: s = |n1 - n2|
    inside = min(n1, n2) >= r and abs(n1 - n2) <= s <= top
    return not inside or (s - n1 + n2) % 2 != 0


@settings(max_examples=40, deadline=None)
@given(
    n1_max=st.integers(0, 9),
    n2_max=st.integers(0, 9),
    r_max=st.integers(1, 9),
    s_max=st.integers(0, 20),
    mode=st.sampled_from(["exact", "log2"]),
)
@example(n1_max=0, n2_max=3, r_max=3, s_max=2, mode="exact")
@example(n1_max=0, n2_max=3, r_max=3, s_max=2, mode="log2")
@example(n1_max=9, n2_max=5, r_max=9, s_max=20, mode="log2")
def test_layers_vanish_outside_the_support(n1_max, n2_max, r_max, s_max, mode):
    # the builder writes support cells only, so every other entry must be
    # exactly the mode's zero
    zero = 0 if mode == "exact" else -math.inf
    for table in iter_pair_layers(n1_max, n2_max, r_max, s_max, mode):
        for (n1, n2, s), value in np.ndenumerate(table.entries):
            if _outside_sticky_support(n1, n2, table.r, s):
                assert value == zero, (table.r, n1, n2, s, value)


@settings(max_examples=30, deadline=None)
@given(
    n1_max=st.integers(0, 10),
    n2_max=st.integers(0, 10),
    r_max=st.integers(1, 10),
    s_max=st.integers(0, 22),
)
@example(n1_max=10, n2_max=10, r_max=10, s_max=20)
@example(n1_max=10, n2_max=4, r_max=4, s_max=9)
@example(n1_max=3, n2_max=10, r_max=3, s_max=22)
def test_layers_are_positive_on_the_whole_support(n1_max, n2_max, r_max, s_max):
    # with the test above: a layer is nonzero exactly on its support.  For
    # r >= 2 that is every cell with P, Q >= 0 and M >= r, as D_r > 0 on the
    # whole (P, Q) plane; at r = 1 one of P and Q must be 0
    for table in iter_pair_layers(n1_max, n2_max, r_max, s_max):
        for (n1, n2, s), value in np.ndenumerate(table.entries):
            if not _outside_sticky_support(n1, n2, table.r, s):
                assert value > 0, (table.r, n1, n2, s, value)


@pytest.mark.parametrize("mode", ["exact", "log2"])
@pytest.mark.parametrize(
    "shape",
    [
        (12, 15, 6, 5),  # s_max cuts every M plane: P + Q > s_max
        (15, 12, 6, 5),  # the same, n1_max > n2_max
        (14, 9, 12, 5),  # |n1 - n2| runs past s_max, n1_max > n2_max
        (9, 14, 9, 11),  # |n1 - n2| runs past s_max, n1_max < n2_max
        (6, 6, 8, 1),  # square, s_max = 1, r_max > n
        (11, 17, 11, 0),  # only s = 0 is stored
    ],
)
def test_truncated_layers_match_the_full_slab_kernel(shape, mode):
    bound = shape[0] + shape[1] + 2
    layers = zip(iter_pair_layers(*shape, mode), sticky_layers_by_full_slabs(*shape), strict=True)
    for table, exact in layers:
        assert_matches_exact(table.entries, exact, mode, bound)
    assert_matches_exact(pair_count_table(*shape, mode).entries, exact, mode, bound)


@pytest.mark.parametrize("mode", ["exact", "log2"])
@pytest.mark.parametrize(
    "shape",
    [
        (8, 8, 8, 16),  # square
        (5, 9, 5, 14),  # wide
        (9, 5, 5, 14),  # tall
        (10, 12, 6, 5),  # truncated in s
        (4, 7, 6, 11),  # r_max > min(n1_max, n2_max)
    ],
)
def test_pair_count_table_is_the_layer_of_iter_pair_layers_at_every_r(shape, mode):
    n1_max, n2_max, r_max, s_max = shape
    layers = list(iter_pair_layers(*shape, mode))
    assert [layer.r for layer in layers] == list(range(1, r_max + 1))
    for layer in layers:
        table = pair_count_table(n1_max, n2_max, layer.r, s_max, mode)
        assert (table.r, table.mode, table.entries.dtype) == (layer.r, layer.mode, layer.entries.dtype)
        assert table.entries.shape == layer.entries.shape == (n1_max + 1, n2_max + 1, s_max + 1)
        if mode == "log2":  # bit for bit; the bytes of an object array are pointers
            assert table.entries.tobytes() == layer.entries.tobytes(), layer.r
        else:
            assert table.entries.tolist() == layer.entries.tolist(), layer.r


@pytest.mark.parametrize(
    "shape",
    [
        (4, 6, 6, 10),  # r_max > min(n1_max, n2_max)
        (0, 3, 3, 2),  # r_max - 1 > (n1_max + n2_max) / 2
        (2, 3, 5, 5),  # r_max - 1 > (n1_max + n2_max) / 2, both sides nonempty
        (6, 6, 4, 0),  # s_max = 0
        (3, 5, 3, 12),  # s_max > n1_max + n2_max
        (7, 4, 3, 6),  # n1_max != n2_max
        (5, 7, 5, 7),  # n1_max != n2_max, s truncated inside the support
        (0, 0, 3, 0),  # square, r_max - 1 > n
        (2, 2, 5, 4),  # square, r_max - 1 > n, both sides nonempty
    ],
)
def test_layers_match_bruteforce_on_edge_shapes(shape):
    n1_max, n2_max, _, s_max = shape
    layers = list(iter_pair_layers(*shape))
    assert [table.r for table in layers] == list(range(1, shape[2] + 1))
    for table in layers:
        assert table.entries.shape == (n1_max + 1, n2_max + 1, s_max + 1)
        for (n1, n2, s), value in np.ndenumerate(table.entries):
            assert value == count_pairs_bruteforce(n1, n2, table.r, s), (table.r, n1, n2, s)


def test_total_ball_exact_values():
    # ordered pairs in S(n,r) x S(n,r) at L1 distance at most d
    assert pair_count_table(3, 3, 2, 2).total(3, 3, 2) == 4
    assert pair_count_table(6, 6, 3, 12).total(6, 6, 12) == 100  # d = 2n holds every pair
    for n in range(2, 9):
        for r in range(1, n + 1):
            assert pair_count_table(n, n, r, 0).total(n, n, 0) == binomial_exact(n - 1, r - 1)


def test_table_count_bounds():
    # zero below the support, DomainError beyond the truncated table, for count and total
    table = pair_count_table(5, 5, 2, 8)
    assert table.count(5, 5, -3) == 0
    assert table.total(5, 5, -3) == 0
    with pytest.raises(DomainError):
        table.count(6, 5, 0)
    with pytest.raises(DomainError):
        table.count(5, 5, 9)
    small = pair_count_table(5, 5, 2, 4)
    assert small.total(5, 5, 4) == table.total(5, 5, 4)
    assert small.count(-1, 5, 3) == small.total(-1, 5, 3) == 0
    with pytest.raises(DomainError):
        small.total(5, 5, 9)  # the sum over s <= 4 alone undercounts table.total(5, 5, 9)
    with pytest.raises(DomainError):
        small.total(6, 5, 4)


# ------------------------------------------------------------- critical point


def test_closed_form_critical_point_values():
    cp = critical_point_closed_form(0.5, 0.5)
    assert cp.z[0] == pytest.approx(0.5773502691896258, abs=1e-12)
    assert cp.z[2] == pytest.approx(0.8284271247461903, abs=1e-12)
    assert cp.z[3] == pytest.approx(0.7174389352143009, abs=1e-12)
    assert cp.residual_norm <= 1e-12


def test_closed_form_residual_small_on_grid():
    for rho in (0.1, 0.3, 0.5, 0.7):
        for delta in (0.1, 0.3, 0.6):
            if 2.0 - delta - 2.0 * rho <= 0.0:
                continue
            cp = critical_point_closed_form(rho, delta)
            assert cp.residual_norm <= 1e-10, (rho, delta)


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(DomainError):
        critical_point_closed_form(0.0, 0.3)
    with pytest.raises(DomainError):
        critical_point_closed_form(1.0, 0.3)
    with pytest.raises(DomainError):
        critical_point_closed_form(0.5, 0.0)
    # the point degenerates where 2 - delta - 2*rho hits zero
    with pytest.raises(DomainError):
        critical_point_closed_form(0.7, 0.6)


# --------------------------------------------------------------- leading term


def test_pair_generating_function_factors():
    # G / H = 1 / (1 - y P) with P = x1 x2 (1 - x1 x2 z^2) / G the
    # generating function of one run pair, so G - H = y x1 x2 (1 - x1 x2 z^2)
    G, H = pair_generating_numerator(), pair_generating_denominator()
    for x1, x2, y, z in ((0.3, 0.7, 0.9, 0.4), (1.5, -0.2, 2.0, 0.8)):
        assert G((x1, x2, y, z)) == pytest.approx(
            (1 - x1 * x2) * (1 - x1 * z) * (1 - x2 * z), abs=1e-14
        )
        assert G((x1, x2, y, z)) - H((x1, x2, y, z)) == pytest.approx(
            y * x1 * x2 * (1 - x1 * x2 * z * z), abs=1e-14
        )


def test_leading_pair_count_error_shrinks_like_one_over_n():
    errors = []
    for n in (16, 32, 48):
        log2_count = float(count_pairs_exact(n, n, n // 4, n // 2, mode="log2"))
        ratio = 2.0 ** (log2_count - leading_pair_count_log2(n, 0.25, 0.5))
        errors.append(abs(ratio - 1.0))
        assert errors[-1] <= 4.0 / n, (n, ratio)
    assert errors[0] > errors[1] > errors[2], errors


def test_leading_pair_count_follows_distance_parity():
    # equal lengths force an even L1 distance: the two critical points cancel
    assert count_pairs_exact(4, 4, 2, 1) == 0
    assert leading_pair_count_log2(4, 0.5, 0.25) == -math.inf
    assert math.isfinite(leading_pair_count_log2(8, 0.5, 0.25))


@pytest.mark.parametrize(
    "n, rho, delta",
    [
        (16, 0.5, 0.0),
        (16, 0.5, math.nan),
        (16, 0.5, math.inf),
        (16, 0.5, 1e-20),  # n delta = 1.6e-19 is within the integrality tolerance of 0
        (16, 0.5, 1e-200),
        (16, 0.5, 1e-300),
        (12, 0.5, 2.0 / 3.0),  # the ball knee 2 beta_max(0.5)
        (16, 0.0, 0.25),
        (16, 1.0, 0.25),
        (16, math.nan, 0.25),
        (16, 1e-20, 0.5),
        (15, 0.5, 0.25),  # n rho, n delta not integral
        (16.0, 0.5, 0.25),
        (0, 0.5, 0.25),
    ],
)
def test_leading_pair_count_rejects_bad_input(n, rho, delta):
    with pytest.raises(DomainError):
        leading_pair_count_log2(n, rho, delta)


# ----------------------------------------------------------------- rate curves


def test_beta_max_values():
    assert beta_max(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert beta_max(0.3) == pytest.approx(0.4117647058823529, abs=1e-12)
    with pytest.raises(DomainError):
        beta_max(0.0)


def test_ball_rate_limits():
    for rho in (0.2, 0.5, 0.8):
        assert ball_rate(rho, 0.0) == pytest.approx(entropy(rho), abs=1e-12)
        bm = beta_max(rho)
        assert ball_rate(rho, bm) == pytest.approx(2.0 * entropy(rho), abs=1e-12)
        assert ball_rate(rho, bm + 0.05) == pytest.approx(2.0 * entropy(rho), abs=1e-15)


def test_ball_rate_known_values():
    assert ball_rate(0.5, 0.125) == pytest.approx(1.7298770110682415, abs=1e-12)
    assert ball_rate(0.5, 0.25) == pytest.approx(1.960275178704479, abs=1e-12)
    assert ball_rate(0.3, 0.1) == pytest.approx(1.4417701725203096, abs=1e-12)
    assert ball_rate(0.7, 0.05) == pytest.approx(1.315149903597424, abs=1e-12)


def test_ball_rate_monotone_in_beta():
    prev = None
    for k in range(0, 35):
        value = ball_rate(0.5, 0.01 * k)
        if prev is not None:
            assert value >= prev - 1e-12
        prev = value


def test_ball_rate_survives_extreme_density_ratios(capsys):
    # tiny run density against moderate radius stresses the conjugate
    # forms used to evaluate the closed-form logarithms
    value = ball_rate(1e-9, 0.1)
    assert math.isfinite(value)
    # rho^2 or (2 beta)^2 underflows to zero in the conjugate quotients
    assert ball_rate(0.5, 1e-170) == pytest.approx(1.0, abs=1e-12)
    assert ball_rate(0.5, 1e-300) == pytest.approx(1.0, abs=1e-12)
    assert ball_rate(1e-200, 0.1) == pytest.approx(0.0, abs=1e-12)
    # root - delta cancels to 0 in the closed-form y without its conjugate form
    cp = critical_point_closed_form(1e-9, 0.2)
    assert growth_exponent(cp) == pytest.approx(ball_rate(1e-9, 0.1), abs=1e-12)
    assert cli.main(["point", "--channel", "sticky", "--rho", "0.5", "--beta", "1e-300"]) == 0
    assert "ball_rate = 1\n" in capsys.readouterr().out


# (rho, beta) on the smooth branch: rho in (0.01, 0.99), 0 < beta < beta_max(rho)
SMOOTH_POINTS = st.floats(0.01, 0.99, exclude_min=True, exclude_max=True).flatmap(
    lambda rho: st.tuples(
        st.just(rho), st.floats(0.0, beta_max(rho), exclude_min=True, exclude_max=True)
    )
)


@settings(max_examples=200, deadline=None)
@given(point=SMOOTH_POINTS)
@example(point=(0.5, 0.125))
@example(point=(0.3, 0.1))
@example(point=(0.7, 0.05))
@example(point=(0.5, 1e-8))  # root - rho keeps under one correct digit here
@example(point=(0.5, 1e-300))  # ... and cancels to 0 here
def test_ball_rate_matches_critical_point_growth(point):
    rho, beta = point
    cp = critical_point_closed_form(rho, 2.0 * beta)
    growth = (
        -2.0 * math.log2(cp.z[0])
        - rho * math.log2(cp.z[2])
        - 2.0 * beta * math.log2(cp.z[3])
    )
    assert ball_rate(rho, beta) == pytest.approx(growth, abs=1e-9)


def test_capacity_runs_is_entropy():
    # the capacity at run density rho is H(rho), whatever beta
    assert sticky.evaluate_point(0.1, 0.3).capacity == pytest.approx(entropy(0.3), abs=1e-15)
    assert sticky.evaluate_point(0.4, 0.5).capacity == 1.0


def test_capacity_runs_matches_counting():
    n, rho = 200, 0.3
    r = round(rho * n)
    finite = math.log2(2 * binomial_exact(n - 1, r - 1)) / n
    assert abs(finite - sticky.evaluate_point(0.1, rho).capacity) <= 0.05


def test_gv_rate_values():
    rate, rho_star = gv_rate(0.0)
    assert rate == pytest.approx(1.0, abs=1e-12)
    assert rho_star == pytest.approx(0.5, abs=1e-12)
    rate, rho_star = gv_rate(0.1)
    assert rate == pytest.approx(0.35870321322114784, abs=1e-10)
    assert rho_star == pytest.approx(0.43915047169858495, abs=1e-10)
    rate, rho_star = gv_rate(0.49)
    assert rate == pytest.approx(3.4430291899201215e-06, rel=1e-6)
    assert rate > 0.0
    assert gv_rate(0.5) == (0.0, 0.0)


def test_gv_rate_positive_through_049():
    for k in range(0, 50):
        beta = 0.01 * k
        rate, rho_star = gv_rate(beta)
        assert rate > 0.0, beta
        assert 0.0 < rho_star <= 0.5


def test_gv_rate_rejects_out_of_range():
    with pytest.raises(DomainError):
        gv_rate(-0.01)
    with pytest.raises(DomainError):
        gv_rate(0.51)


def test_sp_rate_values():
    assert sp_rate(0.0) == pytest.approx(1.0, abs=1e-15)
    assert sp_rate(0.5) == pytest.approx(0.37744375108173434, abs=1e-12)


def test_simple_lb_rate_values():
    assert simple_lb_rate(0.0) == pytest.approx(math.log2(3.0) - 1.0, abs=1e-15)
    assert simple_lb_rate(1e-12) == pytest.approx(math.log2(3.0) - 1.0, abs=1e-9)
    assert simple_lb_rate(0.1) == pytest.approx(0.12192809488736234, abs=1e-12)
    assert simple_lb_rate(0.25) == 0.0
    assert simple_lb_rate(0.4) == 0.0
    # the optimizing run density reaches the boundary continuously
    assert simple_lb_rate(0.25 - 1e-9) == pytest.approx(0.0, abs=1e-7)


def test_bound_ordering():
    for k in range(1, 25):
        beta = 0.01 * k
        lower = simple_lb_rate(beta)
        rate, _ = gv_rate(beta)
        upper = sp_rate(beta)
        assert lower <= rate + 1e-12
        assert rate <= upper + 1e-12


def test_sp_rate_stays_above_gv_rate_at_tiny_beta():
    # (1+beta)/(1+2beta) rounds away most digits of these betas; an sp_rate
    # computed from it falls below gv by up to 5.7e-15 in [5e-17, 1.1e-16]
    betas = [1e-18 * 10 ** (3 * k / 300) for k in range(301)] + [1.0556173927526694e-16]
    assert [beta for beta in betas if gv_rate(beta)[0] > sp_rate(beta)] == []


# The properties below hold up to rounding, with test_bound_ordering's 1e-12 slack:
# ball rates at adjacent floats fall by up to 1.1e-15.
@settings(max_examples=300, deadline=None)
@given(beta=st.floats(0.0, 0.5))
@example(beta=0.25)
@example(beta=0.5)
@example(beta=1.0556173927526694e-16)
def test_bounds_ordered_on_the_whole_beta_range(beta):
    rate, _ = gv_rate(beta)
    assert simple_lb_rate(beta) <= rate + 1e-12
    assert rate <= sp_rate(beta) + 1e-12


@settings(max_examples=300, deadline=None)
@given(
    rho=st.floats(0.01, 0.99),
    betas=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)
@example(rho=0.5, betas=(0.0, 1e-300))
@example(rho=0.5, betas=(beta_max(0.5) * (1.0 - 1e-12), beta_max(0.5)))
def test_ball_rate_nondecreasing_in_beta(rho, betas):
    lo, hi = sorted(betas)
    assert ball_rate(rho, lo) <= ball_rate(rho, hi) + 1e-12
