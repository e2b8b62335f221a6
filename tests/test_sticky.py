"""Unit tests for the duplication-channel combinatorics and rate bounds."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbound import cli, sticky
from gvbound.acsv import growth_exponent
from gvbound.errors import DimensionMismatchError, DomainError, SizeLimitError
from gvbound.numeric import binomial_exact, entropy
from gvbound.sticky import (
    Composition,
    beta_max,
    ball_rate,
    capacity_runs,
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
    total_ball_exact,
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


def test_pair_counts_match_bruteforce_up_to_n6():
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for r in range(1, min(n1, n2) + 1):
                for s in range(0, n1 + n2 + 1):
                    assert count_pairs_exact(n1, n2, r, s) == count_pairs_bruteforce(
                        n1, n2, r, s
                    ), (n1, n2, r, s)


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


def test_total_ball_exact_values():
    assert total_ball_exact(3, 2, 2) == 4
    assert total_ball_exact(6, 3, 10**6) == 100
    for n in range(2, 9):
        for r in range(1, n + 1):
            assert total_ball_exact(n, r, 0) == binomial_exact(n - 1, r - 1)


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
    assert small.total(5, 5, 4) == total_ball_exact(5, 2, 4)
    assert small.count(-1, 5, 3) == small.total(-1, 5, 3) == 0
    with pytest.raises(DomainError):
        small.total(5, 5, 9)  # the sum over s <= 4 alone undercounts total_ball_exact(5, 2, 9)
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
        (12, 0.5, 2.0 / 3.0),  # the ball knee 2 beta_max(0.5)
        (16, 0.0, 0.25),
        (16, 1.0, 0.25),
        (16, math.nan, 0.25),
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
    assert capacity_runs(0.3) == pytest.approx(entropy(0.3), abs=1e-15)
    assert capacity_runs(0.5) == 1.0


def test_capacity_runs_matches_counting():
    n, rho = 200, 0.3
    r = round(rho * n)
    finite = math.log2(2 * binomial_exact(n - 1, r - 1)) / n
    assert abs(finite - capacity_runs(rho)) <= 0.05


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


# The properties below hold up to rounding, with test_bound_ordering's 1e-12 slack:
# for beta in [5e-17, 1.1e-16], gv exceeds sp by up to 5.7e-15 (sp_rate's argument
# (1+beta)/(1+2beta) rounds away most digits of beta),
# and ball rates at adjacent floats fall by up to 1.1e-15.
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
