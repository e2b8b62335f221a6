"""Unit tests for the shared numeric primitives."""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbound import numeric, synthesis
from gvbound.errors import (
    DimensionMismatchError,
    DomainError,
    MemoryBudgetError,
    NoRootFoundError,
    NonConvergenceError,
)
from gvbound.numeric import (
    TABLE_CELL_BUDGET,
    BracketedRoot,
    RealPolynomial,
    _bisect,
    count_mode,
    entropy,
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


def test_count_modes_are_the_two_public_ones():
    assert numeric.CountMode._fields == ("name", "zero")
    assert count_mode("exact") == ("exact", 0) and count_mode("log2") == ("log2", -math.inf)
    for name in ("linear", "limbs", "bogus"):
        with pytest.raises(DomainError, match="mode must be 'exact' or 'log2'"):
            count_mode(name)


@pytest.mark.parametrize(
    "shape, error",
    [
        ((-1,), DomainError),
        ((2.5,), DomainError),
        ((2, True), DomainError),
        ((-(10**30), -(10**30)), DomainError),  # a positive product of negative sizes
        (3, DimensionMismatchError),
    ],
)
def test_blank_checks_every_dimension_before_the_cell_budget(shape, error):
    for mode in ("exact", "log2"):
        with pytest.raises(error):
            count_mode(mode).blank(shape)


def test_count_modes_load_no_numpy():
    # a fresh interpreter: the closed forms take a mode's zero without numpy
    script = (
        "import json, sys\n"
        "from gvbound.numeric import count_mode\n"
        "modes = [count_mode(mode) for mode in ('exact', 'log2')]\n"
        "print(json.dumps([modes, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[["exact", 0], ["log2", -math.inf]], False]


def test_bisection_finds_simple_root():
    result = _bisect(RealPolynomial([-2.0, 0.0, 1.0]), 0.0, 2.0)
    assert isinstance(result, BracketedRoot)
    assert result.root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert abs(result.residual) <= 1e-10
    lo, hi = result.bracket
    assert lo <= result.root <= hi


def test_bisection_detects_exact_endpoint_root():
    result = _bisect(RealPolynomial([-1.0, 1.0]), 1.0, 3.0)
    assert result == BracketedRoot(root=1.0, residual=0.0, bracket=(1.0, 3.0))
    result = _bisect(RealPolynomial([-3.0, 1.0]), 1.0, 3.0)
    assert result == BracketedRoot(root=3.0, residual=0.0, bracket=(1.0, 3.0))


def test_bisection_returns_a_midpoint_root_exactly():
    result = _bisect(RealPolynomial([-1.5, 1.0]), 1.0, 2.0)
    assert result == BracketedRoot(root=1.5, residual=0.0, bracket=(1.0, 2.0))


@pytest.mark.parametrize(
    "coefficients, lo, hi",
    [
        ([-2.0, 0.0, 1.0], 0.0, 2.0),
        ([2.0, 0.0, -1.0], 0.0, 2.0),
        # the cell the halving towards 0 hands over for a root near 1e-30
        ([-1e-30, 1.0], 10.0 / 1024 / 2**93, 10.0 / 1024),
    ],
    ids=["rising", "falling", "halving-cell"],
)
def test_bisection_root_meets_both_tolerances(coefficients, lo, hi):
    p = RealPolynomial(coefficients)
    result = _bisect(p, lo, hi)
    b_lo, b_hi = result.bracket
    assert lo <= b_lo <= result.root <= b_hi <= hi
    assert b_hi - b_lo <= 1e-12
    assert abs(result.residual) <= 1e-12
    assert result.residual == p.evaluate(result.root)


def test_steep_bisection_narrows_past_the_width_tolerance():
    # 100 x^2 - 200: at width 1e-12 |p| is still near 1e-10, so the bracket
    # keeps halving until some probe has |p| <= 1e-12
    result = _bisect(RealPolynomial([-200.0, 0.0, 100.0]), 0.0, 2.0)
    lo, hi = result.bracket
    assert hi - lo < 1e-13
    assert abs(result.residual) <= 1e-12
    assert result.root == pytest.approx(math.sqrt(2.0), abs=1e-14)


@pytest.mark.parametrize(
    "coefficients",
    [[-2e8, 0.0, 1e8], [2e8, 0.0, -1e8], [-2e4, 0.0, 1e4]],
    ids=["rising", "falling", "just-too-steep"],
)
def test_bisection_stalls_when_no_float_meets_the_residual_tolerance(coefficients):
    # the bracket collapses to adjacent floats about sqrt(2), where |p| > 1e-12
    with pytest.raises(
        NonConvergenceError,
        match=r"^bisection stalled at bracket \[1.414213562373095, 1.4142135623730951\]",
    ):
        _bisect(RealPolynomial(coefficients), 0.0, 2.0)


@pytest.mark.parametrize(
    "coefficient",
    [None, "x", "0.3", b"0.3", object(), 1j, math.nan, math.inf, -math.inf, 10**400],
    ids=["None", "str", "numeric-str", "bytes", "object", "complex", "nan", "inf", "-inf", "10**400"],
)
def test_real_polynomial_rejects_coefficients_that_are_not_finite_reals(coefficient):
    with pytest.raises(DomainError, match="^polynomial coefficients must be finite real numbers"):
        RealPolynomial([1.0, coefficient, 2.0])


def test_real_polynomial_trims_and_evaluates():
    p = RealPolynomial([1.0, -3.0, 2.0, 0.0, 0.0])
    assert p.coefficients == (1.0, -3.0, 2.0)
    assert len(p.coefficients) == 3
    # roots of 2x^2 - 3x + 1 are 1/2 and 1
    assert p.evaluate(0.5) == pytest.approx(0.0, abs=1e-15)
    assert p.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)
    # evaluate_many is the same Horner loop, point by point, into a plain list
    xs = [0.0, 0.5, 1.0, 2.0]
    assert p.evaluate_many(xs) == [p.evaluate(x) for x in xs]
    assert type(p.evaluate_many(xs)) is list


def test_evaluate_rejects_an_overflowing_value_that_evaluate_many_returns():
    # the root scan reads an infinite value as a sign, so only evaluate checks it
    p = RealPolynomial([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="^the polynomial overflows float64 at x = 1.797"):
        p.evaluate(1.7976931348623157e308)
    assert p.evaluate_many([1.7976931348623157e308]) == [math.inf]
    assert p.evaluate_many([-1.7976931348623157e308]) == [-math.inf]


def test_real_polynomial_zero_handling():
    z = RealPolynomial([0.0, 0.0])
    assert z.is_zero()
    assert len(z.coefficients) == 1
    assert RealPolynomial([]) == z  # no coefficients: the zero polynomial
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
        and np.sign(RealPolynomial(coefficients)._horner(GRID_STEP)) == np.sign(coefficients[0])
    )


@contextmanager
def _recorded_scan():
    """The points smallest_positive_root probes and the brackets it bisects, in call order."""
    probes, brackets = [], []
    evaluate_many = RealPolynomial.evaluate_many

    def probe(self, xs):
        probes.extend(xs)
        return evaluate_many(self, xs)

    def bisect(p, lo, hi):
        brackets.append((lo, hi))
        return _bisect(p, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RealPolynomial, "evaluate_many", probe)
        mp.setattr(numeric, "_bisect", bisect)
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


@pytest.mark.parametrize("coefficients", [[-3e-30, 3.0, -4.0, 1.0], [-1e-30, 1.0]])
def test_halving_brackets_a_root_below_80_halvings(coefficients):
    # a root near 1e-30 lies below 10 / 1024 / 2^80, about 8e-27: 93 halvings
    # reach it, where handing over to the walk found the root at 1, or none
    p = RealPolynomial(coefficients)
    with _recorded_scan() as (probes, brackets):
        result = smallest_positive_root(p)
    assert probes == [GRID_STEP]
    assert brackets == [(GRID_STEP / 2**93, GRID_STEP)]
    assert result.root == GRID_STEP / 2**93 == pytest.approx(1e-30, rel=0.02)
    assert repr(result) == _outcome(_numpy_scan, p)


def test_halving_to_0_without_the_sign_of_p_at_0_finds_no_root():
    # x^2 (x - 1e-300): every halving edge underflows to +0.0, never negative
    p = RealPolynomial([0.0, 0.0, -1e-300, 1.0])
    with pytest.raises(NoRootFoundError, match=r"shows the sign of the polynomial at 0\+"):
        smallest_positive_root(p)
    assert _outcome(smallest_positive_root, p) == _outcome(_numpy_scan, p)


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
        lo_edge = 0.5 * hi_edge
        while lo_edge > 0.0:
            if math.copysign(1.0, p._horner(lo_edge)) == sign_left:
                return _bisect(p, lo_edge, hi_edge)
            lo_edge *= 0.5
        raise NoRootFoundError(
            "no point of (0, 9.766e-03] shows the sign of the polynomial at 0+"
        )
    change = np.flatnonzero(signs[:-1] * signs[1:] <= 0.0)
    if change.size:
        lo, hi = xs[change[0]], xs[change[0] + 1]
        return _bisect(p, float(lo), float(hi))
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
    except NoRootFoundError as exc:
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
@example(coefficients=[1.0, -1.7976931348623157e308, -1.0218702384817766e294])  # -inf at grid 1
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
