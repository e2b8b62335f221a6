"""Unit tests for the shared numeric primitives."""

import math

import numpy as np
import pytest

from gvbound import numeric, synthesis
from gvbound.errors import (
    DomainError,
    MemoryBudgetError,
    NoRootFoundError,
    NoSignChangeError,
)
from gvbound.numeric import (
    TABLE_CELL_BUDGET,
    BracketedRoot,
    RealPolynomial,
    binomial_exact,
    count_mode,
    entropy,
    find_root_bisection,
    smallest_positive_root,
)


def test_entropy_endpoints_and_peak():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0


def test_entropy_symmetry_and_known_value():
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, 1.0, size=20):
        assert entropy(float(p)) == pytest.approx(entropy(float(1.0 - p)), abs=1e-12)
    assert entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-15)


def test_entropy_rejects_out_of_range():
    with pytest.raises(DomainError):
        entropy(-0.01)
    with pytest.raises(DomainError):
        entropy(1.01)


def test_binomial_exact_matches_pascal():
    for n in range(0, 12):
        for k in range(0, n + 1):
            if 0 < k < n:
                expected = binomial_exact(n - 1, k - 1) + binomial_exact(n - 1, k)
                assert binomial_exact(n, k) == expected
    assert binomial_exact(0, 0) == 1
    assert binomial_exact(52, 5) == 2598960


def test_binomial_exact_is_arbitrary_precision():
    value = binomial_exact(200, 100)
    assert isinstance(value, int)
    assert value == math.comb(200, 100)
    assert value > 2**195


def test_binomial_exact_rejects_bad_arguments():
    with pytest.raises(DomainError):
        binomial_exact(-1, 0)
    with pytest.raises(DomainError):
        binomial_exact(3, 4)
    with pytest.raises(DomainError):
        binomial_exact(3, -1)
    with pytest.raises(DomainError):
        binomial_exact(3.5, 1)
    with pytest.raises(DomainError):
        binomial_exact(3, 1.0)


def test_count_mode_tables_sums_and_cell_budget():
    exact, log2 = count_mode("exact"), count_mode("log2")
    table = exact.blank((2, 3))
    assert table.dtype == object
    assert table.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert log2.blank((2,)).tolist() == [-math.inf, -math.inf]
    assert exact.sum(np.array([2**70, 3], dtype=object)) == 2**70 + 3
    assert log2.sum(np.array([3.0, 3.0, -math.inf])) == pytest.approx(4.0, abs=1e-15)
    assert log2.sum(log2.blank((4,))) == -math.inf
    with pytest.raises(MemoryBudgetError, match=f"budget is {TABLE_CELL_BUDGET}"):
        exact.blank((2, TABLE_CELL_BUDGET // 2 + 1))


def test_log2_accumulator_switches_to_logaddexp2_one_bit_above_the_cutoff(monkeypatch):
    exact, log2 = count_mode("exact"), count_mode("log2")
    assert log2._accumulator(1000).name == "linear"
    assert log2._accumulator(1001) is log2
    assert exact._accumulator(0) is exact
    monkeypatch.setattr(numeric, "_LINEAR_LOG2_BITS", 20)
    assert log2._accumulator(20).name == "linear"
    assert log2._accumulator(21) is log2


def test_linear_accumulator_finishes_as_log2_in_place():
    log2 = count_mode("log2")
    linear = log2._accumulator(0)
    assert (linear.zero, linear.one, linear.add) == (0.0, 1.0, np.add)
    table = linear.blank((4,))
    table[1:] = [1.0, 8.0, 2.0**1000]
    assert linear._finish(table) is table
    assert table.tolist() == [-math.inf, 0.0, 3.0, 1000.0]
    for mode in (log2, count_mode("exact")):
        untouched = mode.blank((2,))
        assert mode._finish(untouched) is untouched
        assert untouched.tolist() == [mode.zero] * 2
    with pytest.raises(DomainError):
        count_mode("linear")


def test_bisection_finds_simple_root():
    result = find_root_bisection(lambda x: x * x - 2.0, 0.0, 2.0)
    assert isinstance(result, BracketedRoot)
    assert result.root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert abs(result.residual) <= 1e-10
    lo, hi = result.bracket
    assert lo <= result.root <= hi


def test_bisection_detects_exact_endpoint_root():
    result = find_root_bisection(lambda x: x - 1.0, 1.0, 3.0)
    assert result.root == 1.0
    assert result.residual == 0.0


def test_bisection_rejects_same_sign_bracket():
    with pytest.raises(NoSignChangeError):
        find_root_bisection(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisection_rejects_bad_bracket():
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x, 2.0, 1.0)


def test_real_polynomial_trims_and_evaluates():
    p = RealPolynomial([1.0, -3.0, 2.0, 0.0, 0.0])
    assert p.coefficients == (1.0, -3.0, 2.0)
    assert p.degree == 2
    # roots of 2x^2 - 3x + 1 are 1/2 and 1
    assert p.evaluate(0.5) == pytest.approx(0.0, abs=1e-15)
    assert p.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)
    # evaluate_many is the same Horner loop, point by point, into a plain list
    xs = [0.0, 0.5, 1.0, 2.0]
    assert p.evaluate_many(xs) == [p.evaluate(x) for x in xs]
    assert type(p.evaluate_many(xs)) is list


def test_real_polynomial_zero_handling():
    z = RealPolynomial([0.0, 0.0])
    assert z.is_zero()
    assert z.degree == 0
    with pytest.raises(DomainError):
        smallest_positive_root(z)


def test_smallest_positive_root_picks_leftmost():
    # (x - 1/2)(x - 1)(x - 3) expanded, constant term first
    p = RealPolynomial([-1.5, 5.0, -4.5, 1.0])
    result = smallest_positive_root(p)
    assert result.root == pytest.approx(0.5, abs=1e-10)


def test_smallest_positive_root_handles_tight_root():
    # root at 1e-5, far below the initial grid step of 10 / 1024
    p = RealPolynomial([-1e-5, 1.0])
    result = smallest_positive_root(p)
    assert result.root == pytest.approx(1e-5, rel=1e-8)


def test_smallest_positive_root_reports_missing_root():
    p = RealPolynomial([1.0, 0.0, 1.0])
    with pytest.raises(NoRootFoundError, match=r"\(0, 10.0\]"):
        smallest_positive_root(p)
    # the scan covers (0, 10]: a root at 9.5 is found, one at 10.5 is not
    assert smallest_positive_root(RealPolynomial([-9.5, 1.0])).root == pytest.approx(9.5)
    with pytest.raises(NoRootFoundError):
        smallest_positive_root(RealPolynomial([-10.5, 1.0]))


@pytest.mark.parametrize("coefficients", [[-5.0, 1.0], [25.0, -10.0, 1.0]])
def test_smallest_positive_root_on_a_grid_point(coefficients):
    # 5 = 512 * 10 / 1024 is a grid point; (x - 5)^2 touches zero there
    # without a sign change, and the cell that ends on it is bisected
    result = smallest_positive_root(RealPolynomial(coefficients))
    assert result.root == 5.0
    assert result.residual == 0.0


GRID_STEP = 10.0 / 1024


@pytest.mark.parametrize(
    "coefficients, cells",
    [
        ([-1.5, 5.0, -4.5, 1.0], math.ceil(0.5 / GRID_STEP)),  # roots 1/2, 1, 3
        ([-2.0, 0.0, 1.0], math.ceil(math.sqrt(2.0) / GRID_STEP)),
        ([-5.0, 1.0], 512),  # root on the grid point 512 * step
        ([-GRID_STEP, 1.0], 2),  # root on the first grid point: its cell is bisected
        ([-9.999, 1.0], 1024),  # root in the last cell
        ([-1e-5, 1.0], 1),  # root before the first grid point: halving, no further scan
        ([1.0, 0.0, 1.0], 1024),  # no root: the whole grid
    ],
)
def test_smallest_positive_root_stops_at_the_first_sign_change(monkeypatch, coefficients, cells):
    points = []
    evaluate_many = RealPolynomial.evaluate_many

    def recorded(self, xs):
        points.extend(xs)
        return evaluate_many(self, xs)

    monkeypatch.setattr(RealPolynomial, "evaluate_many", recorded)
    try:
        smallest_positive_root(RealPolynomial(coefficients))
    except NoRootFoundError:
        pass
    # grid points k * 10 / 1024 in order, each evaluated once, up to the bracketing cell
    assert points == [k * GRID_STEP for k in range(1, cells + 1)]


def _numpy_scan(p: RealPolynomial) -> BracketedRoot:
    """The vectorized grid scan smallest_positive_root used to run: the test oracle.

    Evaluates all 1024 grid points at once with numpy.polynomial and
    bisects the first cell with a sign change or a zero.
    """
    from numpy.polynomial import polynomial as npoly

    sign_left = next(math.copysign(1.0, c) for c in p.coefficients if c != 0.0)
    xs = np.linspace(0.0, 10.0, 1025)[1:]
    with np.errstate(invalid="ignore"):  # a NaN value is a sign, not a test failure
        signs = np.sign(npoly.polyval(xs, np.asarray(p.coefficients)))
    if signs[0] != 0.0 and signs[0] != sign_left:
        hi_edge = float(xs[0])
        lo_edge = hi_edge
        for _ in range(80):
            lo_edge *= 0.5
            if math.copysign(1.0, p.evaluate(lo_edge)) == sign_left:
                return find_root_bisection(p.evaluate, lo_edge, hi_edge)
    change = np.flatnonzero(signs[:-1] * signs[1:] <= 0.0)
    if change.size:
        lo, hi = xs[change[0]], xs[change[0] + 1]
        return find_root_bisection(p.evaluate, float(lo), float(hi))
    raise NoRootFoundError(
        "no sign change of the polynomial found on (0, 10.0] at grid step 9.766e-03"
    )


def _synthesis_scan_polynomials() -> list[RealPolynomial]:
    """Every polynomial the synthesis closed forms scan, over tau 1.3 .. 2.4."""
    polys = []
    scan = synthesis.smallest_positive_root

    def recorded(p):
        polys.append(p)
        return scan(p)

    synthesis.smallest_positive_root = recorded
    try:
        for tau in [1.3 + 0.1 * k for k in range(12)]:
            synthesis.capacity.__wrapped__(tau)
            dm, _ = synthesis.delta_max.__wrapped__(tau)
            for delta in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.9 * dm, dm):
                synthesis.critical_point(tau, delta)
    finally:
        synthesis.smallest_positive_root = scan
    return polys


def _outcome(scan, p: RealPolynomial) -> str:
    # repr round-trips every float, so equal reprs are equal bits
    try:
        return repr(scan(p))
    except (NoRootFoundError, NoSignChangeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_smallest_positive_root_matches_the_numpy_scan_bit_for_bit():
    polys = _synthesis_scan_polynomials()
    assert len(polys) == 12 * (2 + 7)
    polys += [
        RealPolynomial([-1e-5, 1.0]),  # halving branch
        RealPolynomial([-5.0, 1.0]),  # root on a grid point
        RealPolynomial([-GRID_STEP, 1.0]),  # root on the first grid point
        RealPolynomial([25.0, -10.0, 1.0]),  # double root on a grid point
        RealPolynomial([-1.5, 5.0, -4.5, 1.0]),
        RealPolynomial([1.0, 0.0, 1.0]),  # no root
        RealPolynomial([-1.0, -math.inf, math.inf]),  # NaN on every grid point
    ]
    for p in polys:
        assert _outcome(smallest_positive_root, p) == _outcome(_numpy_scan, p), p.coefficients
