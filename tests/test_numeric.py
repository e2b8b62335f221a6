"""Unit tests for the shared numeric primitives."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbound import numeric, synthesis
from gvbound.errors import (
    DomainError,
    MemoryBudgetError,
    NoRootFoundError,
    NoSignChangeError,
    NonConvergenceError,
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


def test_encode_writes_exact_counts_as_each_mode_stores_them():
    counts = np.array([1, 3, 2**1100], dtype=object)
    exact, log2 = count_mode("exact"), count_mode("log2")
    linear = log2._accumulator(0)
    assert exact._encode(counts) is counts
    assert linear._encode(counts) is counts
    assert log2._encode(counts) == [0.0, math.log2(3), 1100.0]
    table = linear.blank((3,))
    table[:2] = linear._encode(counts[:2])  # float64 rounds each count on assignment
    assert table.tolist() == [1.0, 3.0, 0.0]
    with pytest.raises(OverflowError):
        table[2:] = linear._encode(counts[2:])
    logs = log2.blank((4,))
    logs[1:] = log2._encode(counts)
    assert logs.tolist() == [-math.inf, 0.0, math.log2(3), 1100.0]


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
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x - 0.3, 0.0, math.inf)
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x + 0.3, -math.inf, 0.0)
    # not numbers: the comparison's TypeError comes back as a DomainError
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x, None, 1.0)
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x, -1.0, "1")


@pytest.mark.parametrize(
    "coefficient",
    [None, "x", object(), 1j, math.nan, math.inf, -math.inf, 10**400],
    ids=["None", "str", "object", "complex", "nan", "inf", "-inf", "10**400"],
)
def test_real_polynomial_rejects_coefficients_that_are_not_finite_reals(coefficient):
    with pytest.raises(DomainError, match="^polynomial coefficients must be finite real numbers"):
        RealPolynomial([1.0, coefficient, 2.0])


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


def _one_sign_change(coefficients) -> bool:
    """The Descartes bracket's precondition, restated: p(0) != 0, finite
    coefficients whose nonzero ones change sign once, and p at the first
    grid point of the sign of p(0)."""
    nonzero = [c for c in coefficients if c != 0.0]
    return (
        all(map(math.isfinite, coefficients))
        and coefficients[0] != 0.0
        and sum((a > 0.0) != (b > 0.0) for a, b in zip(nonzero, nonzero[1:])) == 1
        and np.sign(RealPolynomial(coefficients).evaluate(GRID_STEP)) == np.sign(coefficients[0])
    )


@contextmanager
def _recorded_scan():
    """The points smallest_positive_root probes and the brackets it bisects, in call order."""
    probes, brackets = [], []
    evaluate_many = RealPolynomial.evaluate_many

    def probe(self, xs):
        probes.extend(xs)
        return evaluate_many(self, xs)

    def bisect(f, lo, hi):
        brackets.append((lo, hi))
        return find_root_bisection(f, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RealPolynomial, "evaluate_many", probe)
        mp.setattr(numeric, "find_root_bisection", bisect)
        yield probes, brackets


def _walked(probes: list[float]) -> bool:
    """probes are the grid points k * 10 / 1024, k = 1, 2, ..., in order, each once."""
    return probes == [k * GRID_STEP for k in range(1, len(probes) + 1)]


def _bisected_search(probes: list[float]) -> bool:
    """probes are at most 11 grid points, the first grid point first, each once."""
    return (
        2 <= len(probes) <= 11
        and probes[0] == GRID_STEP
        and len(set(probes)) == len(probes)
        and all((x / GRID_STEP).is_integer() and x <= 10.0 for x in probes)
    )


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
def test_smallest_positive_root_stops_at_the_first_sign_change(coefficients, cells):
    # cells: the walk visits grid points 1 .. cells and, past the first, bisects (cells - 1, cells)
    p = RealPolynomial(coefficients)
    with _recorded_scan() as (probes, brackets):
        outcome = _outcome(smallest_positive_root, p)
    if _one_sign_change(coefficients):
        # x^2 - 2, x - 5 and x - 9.999: a binary search over the grid index
        assert _bisected_search(probes), probes
    else:
        # three sign changes, a zero or a sign change before the first grid
        # point, or no sign change: grid points in order up to the stopping cell
        assert probes == [k * GRID_STEP for k in range(1, cells + 1)]
    assert outcome.startswith(("BracketedRoot", "NoRootFoundError")), outcome
    if cells >= 2 and not outcome.startswith("NoRootFoundError"):
        assert brackets == [((cells - 1) * GRID_STEP, cells * GRID_STEP)]
    assert outcome == _outcome(_numpy_scan, p)


def _numpy_scan(p: RealPolynomial) -> BracketedRoot:
    """The vectorized grid scan smallest_positive_root used to run: the test oracle.

    Evaluates all 1024 grid points at once with numpy.polynomial and
    bisects the first cell with a sign change or a zero.
    """
    from numpy.polynomial import polynomial as npoly

    sign_left = next(math.copysign(1.0, c) for c in p.coefficients if c != 0.0)
    xs = np.linspace(0.0, 10.0, 1025)[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or a NaN value is a sign
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


def _synthesis_scan_polynomials(taus, deltas) -> list[RealPolynomial]:
    """Every polynomial the synthesis closed forms scan at each tau, and at each
    delta of deltas(delta_max(tau)) for the critical point."""
    polys = []
    scan = synthesis.smallest_positive_root

    def recorded(p):
        polys.append(p)
        return scan(p)

    synthesis.smallest_positive_root = recorded
    try:
        for tau in taus:
            synthesis._capacity.__wrapped__(tau)
            dm, _ = synthesis._delta_max.__wrapped__(tau)
            for delta in deltas(dm):
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


def _outcome_or_stall(scan, p: RealPolynomial) -> str:
    """_outcome, with a bisection that stops short as one more outcome: on an
    arbitrary polynomial both routes bisect the same cell, so they stall alike."""
    try:
        return _outcome(scan, p)
    except NonConvergenceError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_smallest_positive_root_matches_the_numpy_scan_bit_for_bit():
    polys = _synthesis_scan_polynomials(
        [1.3 + 0.1 * k for k in range(12)],
        lambda dm: (1e-6, 0.01, 0.1, 0.3, 0.5, 0.9 * dm, dm),
    )
    assert len(polys) == 12 * (2 + 7)
    polys += [
        RealPolynomial([-1e-5, 1.0]),  # halving branch
        RealPolynomial([-5.0, 1.0]),  # root on a grid point
        RealPolynomial([-GRID_STEP, 1.0]),  # root on the first grid point
        RealPolynomial([25.0, -10.0, 1.0]),  # double root on a grid point
        RealPolynomial([-1.5, 5.0, -4.5, 1.0]),
        RealPolynomial([1.0, 0.0, 1.0]),  # no root
    ]
    for p in polys:
        assert _outcome(smallest_positive_root, p) == _outcome(_numpy_scan, p), p.coefficients


def test_dense_synthesis_scans_match_the_numpy_scan_bit_for_bit():
    # tau 1.05 .. 2.49 by 0.08, 200 deltas in (0, delta_max]: every polynomial a
    # synthesis sweep scans there.  Near tau = 5/2 the critical-point
    # polynomial has three sign changes and the walk runs.
    taus = [1.05 + 0.08 * k for k in range(19)]
    polys = _synthesis_scan_polynomials(taus, lambda dm: [dm * k / 200 for k in range(1, 201)])
    assert len(polys) == 19 * (2 + 200)
    paths = {True: 0, False: 0}
    for p in polys:
        with _recorded_scan() as (probes, _):
            outcome = _outcome(smallest_positive_root, p)
        descartes = _one_sign_change(p.coefficients)
        paths[descartes] += 1
        assert _bisected_search(probes) if descartes else _walked(probes), p.coefficients
        assert outcome == _outcome(_numpy_scan, p), p.coefficients
    assert paths[True] > 0 and paths[False] > 0, paths


def _one_sign_change_polynomials():
    """Finite coefficients, constant term first, whose nonzero ones change sign once."""
    magnitude = st.one_of(
        st.just(0.0),
        st.floats(0.0, 20.0),
        st.floats(0.0, allow_nan=False, allow_infinity=False),
    )

    def build(args):
        low, high, sign = args
        return [sign * c for c in low] + [-sign * c for c in high]

    side = st.lists(magnitude, min_size=1, max_size=5).filter(any)
    return st.tuples(side, side, st.sampled_from([1.0, -1.0])).map(build)


@settings(max_examples=200, deadline=None)
@given(coefficients=_one_sign_change_polynomials())
@example(coefficients=[-2.0, 0.0, 1.0])
@example(coefficients=[0.0, -2.0, 1.0])  # p(0) = 0: the walk
@example(coefficients=[-511 * GRID_STEP, 1.0])  # root on a grid point
@example(coefficients=[-1023.5 * GRID_STEP, 1.0])  # root in the last cell
@example(coefficients=[-10.5, 1.0])  # root past the grid
@example(coefficients=[1e300, 1e300, -1e-300])  # values overflow to inf
@example(coefficients=[5e-324, -5e-324])  # subnormal coefficients
def test_one_sign_change_roots_match_the_numpy_scan_bit_for_bit(coefficients):
    p = RealPolynomial(coefficients)
    with _recorded_scan() as (probes, _):
        outcome = _outcome_or_stall(smallest_positive_root, p)
    assert _bisected_search(probes) if _one_sign_change(coefficients) else _walked(probes)
    assert outcome == _outcome_or_stall(_numpy_scan, p)


@pytest.mark.parametrize(
    "coefficients",
    [
        [-1.0, math.inf],  # one sign change, but infinite: inf on every grid point
        [1.0, -math.inf],
        [math.nan, 1.0],  # NaN on every grid point
        [-1.0, math.nan, 1.0],
        [-1.0, 2.0, -math.inf, math.inf],  # inf - inf: NaN on every grid point
        [-1.0, -math.inf, math.inf],
    ],
)
def test_non_finite_coefficients_take_the_walk(coefficients):
    # rejected when built, so no root scan meets a NaN or infinite coefficient
    with pytest.raises(DomainError, match="^polynomial coefficients must be finite"):
        RealPolynomial(coefficients)
