"""Unit tests for the multivariate critical-point machinery."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gvbound import acsv, sticky, synthesis
from gvbound.acsv import (
    CriticalPoint,
    SparseMultivariatePolynomial,
    critical_system_residual,
    growth_exponent,
    leading_term,
    solve_critical_point,
)
from gvbound.errors import (
    DimensionMismatchError,
    DomainError,
    NonConvergenceError,
)
from table_checks import evaluate_by_powers, solve_by_full_evaluations


def binomial_denominator() -> SparseMultivariatePolynomial:
    """H(x, y) = 1 - x - y, whose diagonal coefficients are C(2n, n)."""
    return SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)])


def test_polynomial_merges_and_drops_terms():
    p = SparseMultivariatePolynomial(
        2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 1), 0.0), ((0, 0), 1.0)]
    )
    assert p((0.0, 0.0)) == 1.0
    assert p((1.0, 5.0)) == 6.0
    assert len(p.terms) == 2


@pytest.mark.parametrize(
    "coefficient",
    [None, "x", "0.3", b"0.3", object(), 1j, math.nan, math.inf, -math.inf, 10**400],
    ids=["None", "str", "numeric-str", "bytes", "object", "complex", "nan", "inf", "-inf", "10**400"],
)
def test_polynomial_rejects_coefficients_that_are_not_finite_reals(coefficient):
    # a NaN coefficient would make H nan and the solver fail with a misleading error
    with pytest.raises(DomainError, match="^polynomial coefficients must be finite real numbers"):
        SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), coefficient), ((0, 1), -1.0)])


def test_polynomial_rejects_like_terms_that_sum_past_float64():
    with pytest.raises(DomainError, match="^polynomial coefficients must be finite real numbers"):
        SparseMultivariatePolynomial(1, [((1,), 1e308), ((0,), 1.0), ((1,), 1e308)])


def test_polynomial_validates_exponents():
    with pytest.raises(DimensionMismatchError):
        SparseMultivariatePolynomial(2, [((1,), 1.0)])
    with pytest.raises(DomainError):
        SparseMultivariatePolynomial(1, [((-1,), 1.0)])
    with pytest.raises(DomainError):
        SparseMultivariatePolynomial(0, [])
    with pytest.raises(DomainError):
        SparseMultivariatePolynomial(1, [((1.5,), 1.0)])
    with pytest.raises(DomainError):
        SparseMultivariatePolynomial(2.7, [])


def test_partial_derivatives():
    # p = x^2 y + 3x
    p = SparseMultivariatePolynomial(2, [((2, 1), 1.0), ((1, 0), 3.0)])
    px = p.partial(0)
    py = p.partial(1)
    assert px((2.0, 5.0)) == pytest.approx(2 * 2.0 * 5.0 + 3.0)
    assert py((2.0, 5.0)) == pytest.approx(4.0)
    # differentiating away the last variable occurrence leaves a constant
    assert py((7.0, 11.0)) == pytest.approx(49.0)
    # the cached derivative table holds the same polynomials, built once
    assert p.gradient == (px, py)
    assert p.gradient is p.gradient
    assert p.hessian == ((px.partial(0), px.partial(1)), (py.partial(0), py.partial(1)))
    assert p.hessian[1] is p.gradient[1].gradient
    assert p.hessian[0][1]((2.0, 5.0)) == p.hessian[1][0]((2.0, 5.0)) == 4.0


def test_residual_components_on_binomial_system():
    H = binomial_denominator()
    res = critical_system_residual(H, (1.0, 1.0), (0.5, 0.5))
    np.testing.assert_allclose(res, [0.0, 0.0], atol=1e-15)
    res_off = critical_system_residual(H, (1.0, 1.0), (0.4, 0.4))
    # first component is H itself, second the gradient-proportionality gap
    assert res_off[0] == pytest.approx(0.2, abs=1e-15)
    assert res_off[1] == pytest.approx(0.0, abs=1e-15)


def test_residual_direction_validation():
    H = binomial_denominator()
    with pytest.raises(DimensionMismatchError):
        critical_system_residual(H, (1.0,), (0.5, 0.5))
    with pytest.raises(DomainError):
        critical_system_residual(H, (1.0, 0.0), (0.5, 0.5))
    with pytest.raises(DomainError):
        critical_system_residual(H, (1.0, -1.0), (0.5, 0.5))


def test_solve_critical_point_central_binomial():
    H = binomial_denominator()
    cp = solve_critical_point(H, (1.0, 1.0), initial=(0.3, 0.7))
    assert isinstance(cp, CriticalPoint)
    np.testing.assert_allclose(cp.z, [0.5, 0.5], atol=1e-9)
    assert cp.residual_norm <= 1e-9
    # C(2n, n) grows like 4^n, i.e. 2 bits per coordinate step
    assert growth_exponent(cp) == pytest.approx(2.0, abs=1e-9)


def test_solve_critical_point_skewed_direction():
    # coefficients of 1/(1 - x - y) along direction (2, 1) grow like
    # C(3n, n), whose exponent is 3 log2 3 - 2
    H = binomial_denominator()
    cp = solve_critical_point(H, (2.0, 1.0))
    expected = 3.0 * math.log2(3.0) - 2.0
    assert growth_exponent(cp) == pytest.approx(expected, abs=1e-9)
    np.testing.assert_allclose(cp.z, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)


def test_solve_critical_point_reports_nonconvergence():
    # H = 1 + x^2 + y^2 has no zero at all, so the residual can never
    # reach the tolerance and the iteration must report failure
    H = SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((2, 0), 1.0), ((0, 2), 1.0)])
    with pytest.raises(NonConvergenceError):
        solve_critical_point(H, (1.0, 1.0))


def test_solve_critical_point_validates_initial():
    H = binomial_denominator()
    with pytest.raises(DimensionMismatchError):
        solve_critical_point(H, (1.0, 1.0), initial=(0.5,))
    with pytest.raises(DomainError):
        solve_critical_point(H, (1.0, 1.0), initial=(0.5, -0.5))


def test_solver_reaches_channel_closed_forms_from_default_start():
    # the all-0.5 start is far from both closed forms, so Newton takes real steps
    H = sticky.pair_generating_denominator()
    assert H is sticky.pair_generating_denominator()
    for rho in (0.2, 0.3, 0.5):
        for delta in (0.1, 0.2, 0.3):
            cf = sticky.critical_point_closed_form(rho, delta)
            cp = solve_critical_point(H, (1.0, 1.0, rho, delta))
            np.testing.assert_allclose(cp.z, cf.z, rtol=0.0, atol=1e-8)
    H = synthesis.pair_generating_denominator()
    assert H is synthesis.pair_generating_denominator()
    for tau in (1.5, 2.0):
        for delta in (0.1, 0.3):
            cf = synthesis.critical_point(tau, delta)
            cp = solve_critical_point(H, (1.0, 2.0 * tau, delta))
            np.testing.assert_allclose(cp.z, cf.z, rtol=0.0, atol=1e-8)


# Newton steps a correct Jacobian needs on verify's solves; one row 10 % off needs 9 to 14
NEWTON_STEP_BOUND = 8


def verify_solves() -> list:
    """(H, r, initial) of each Newton solve of `gvbound verify acsv`."""
    solves = [(binomial_denominator(), (1.0, 1.0), (0.3, 0.7))]
    solves += [
        (sticky.pair_generating_denominator(), (1.0, 1.0, rho, delta), None)
        for rho in (0.2, 0.3, 0.5)
        for delta in (0.1, 0.2, 0.3)
    ]
    solves += [
        (synthesis.pair_generating_denominator(), (1.0, 2.0 * tau, delta), None)
        for tau in (1.5, 2.0)
        for delta in (0.1, 0.3)
    ]
    return solves


def test_solver_converges_within_pinned_steps_on_verify_grids():
    solves = verify_solves()
    assert len(solves) == 14
    for H, r, initial in solves:
        cp = solve_critical_point(H, r, initial=initial)
        assert 1 <= cp.iterations <= NEWTON_STEP_BOUND, (r, cp.iterations)
    # closed forms take no Newton step
    assert sticky.critical_point_closed_form(0.5, 0.25).iterations == 0
    assert synthesis.critical_point(2.0, 0.3).iterations == 0


# ------------------------------------------------------------ leading term

ONE = SparseMultivariatePolynomial(2, [((0, 0), 1.0)])


def delannoy_denominator() -> SparseMultivariatePolynomial:
    """H(x, y) = 1 - x - y - xy, whose diagonal coefficients are the central Delannoy numbers."""
    return SparseMultivariatePolynomial(
        2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0), ((1, 1), -1.0)]
    )


def test_leading_term_central_binomial():
    # C(2n, n) ~ 4^n / sqrt(pi n)
    for n in range(8, 65, 8):
        log2_term = leading_term(binomial_denominator(), ONE, (1.0, 1.0), (0.5, 0.5), n)
        assert log2_term == pytest.approx(2.0 * n - 0.5 * math.log2(math.pi * n), abs=1e-12)
        ratio = 2.0 ** (math.log2(math.comb(2 * n, n)) - log2_term)
        assert abs(ratio - 1.0) <= 1.0 / n, (n, ratio)


def test_leading_term_central_delannoy():
    w = math.sqrt(2.0) - 1.0
    for n in range(8, 65, 8):
        exact = sum(math.comb(n, k) ** 2 * 2**k for k in range(n + 1))
        log2_term = leading_term(delannoy_denominator(), ONE, (1.0, 1.0), (w, w), n)
        ratio = 2.0 ** (math.log2(exact) - log2_term)
        assert abs(ratio - 1.0) <= 1.0 / n, (n, ratio)


@pytest.mark.parametrize(
    "r, w, n",
    [
        ((1.0, 1.0), (0.5, 0.5), math.nan),
        ((1.0, 1.0), (0.5, 0.5), math.inf),
        ((1.0, 1.0), (0.5, 0.5), 3.5),
        ((1.0, 1.0), (0.5, 0.5), 4.0),
        ((1.0, 1.0), (0.5, 0.5), 0),
        ((1.0, 1.0), (0.5, 0.5), -4),
        ((1.0, 0.5), (2.0 / 3.0, 1.0 / 3.0), 3),  # n * r = (3, 1.5)
        ((1.0, 1.0), (0.4, 0.4), 4),  # not on the variety
        ((1.0, 1.0), (0.25, 0.75), 4),  # on the variety, not critical
        ((1.0, 1.0), (-0.5, 1.5), 4),  # not positive
        ((1e10, 1e10), (0.5, 0.5), 10**300),  # n * r overflows to inf
    ],
)
def test_leading_term_rejects_bad_input(r, w, n):
    with pytest.raises(DomainError):
        leading_term(binomial_denominator(), ONE, r, w, n)


def test_leading_term_rejects_a_numerator_in_other_variables():
    G = SparseMultivariatePolynomial(3, [((0, 0, 0), 1.0)])
    with pytest.raises(DimensionMismatchError, match="numerator has 3 variables"):
        leading_term(binomial_denominator(), G, (1.0, 1.0), (0.5, 0.5), 4)


def test_leading_term_rejects_a_vanishing_last_partial():
    # (1 - x - y)^2 and its gradient vanish on the line x + y = 1: a critical point with dH/dy = 0
    H = SparseMultivariatePolynomial(
        2, [((0, 0), 1.0), ((1, 0), -2.0), ((0, 1), -2.0), ((2, 0), 1.0), ((1, 1), 2.0), ((0, 2), 1.0)]
    )
    with pytest.raises(DomainError, match="dH/dz_d vanishes"):
        leading_term(H, ONE, (1.0, 1.0), (0.5, 0.5), 4)


def test_leading_term_rejects_a_negative_constant():
    G = SparseMultivariatePolynomial(2, [((0, 0), -1.0)])
    with pytest.raises(DomainError, match="no positive leading term"):
        leading_term(binomial_denominator(), G, (1.0, 1.0), (0.5, 0.5), 4)


def test_leading_term_rejects_a_determinant_that_reads_zero(monkeypatch):
    # a Hessian whose pivots are nonzero but whose determinant underflows to 0.0
    eliminate = acsv._eliminate
    monkeypatch.setattr(acsv, "_eliminate", lambda a, b: (0.0, eliminate(a, b)[1]))
    with pytest.raises(DomainError, match="^no positive leading term at this point"):
        leading_term(binomial_denominator(), ONE, (1.0, 1.0), (0.5, 0.5), 4)


def test_solve_critical_point_reports_a_singular_jacobian():
    # H = 1 - x does not depend on y, so the Jacobian has a zero column
    H = SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0)])
    with pytest.raises(NonConvergenceError, match="singular Jacobian"):
        solve_critical_point(H, (1.0, 1.0))


# ------------------------------------------------------- float error contract


def test_overflowing_point_gives_infinities_not_an_exception():
    # 1e200 ** 2 overflows; the value is -inf and the residual norm NaN (inf - inf)
    H = synthesis.pair_generating_denominator()
    assert H((1e200,) * 3) == -math.inf
    cp = CriticalPoint.at(H, (1.0, 4.0, 0.3), (1e200,) * 3)
    assert math.isnan(cp.residual_norm)
    # an odd power of a negative base overflows to -inf
    odd = SparseMultivariatePolynomial(1, [((3,), 1.0)])
    assert odd((-1e200,)) == -math.inf
    assert odd((1e200,)) == math.inf
    assert SparseMultivariatePolynomial(1, [((2,), 1.0)])((-1e200,)) == math.inf


@pytest.mark.parametrize(
    "residual", [[math.nan, 1.0], [1.0, math.nan], [2.0, math.nan, 1.0], [math.nan, math.inf]]
)
def test_residual_norm_is_nan_when_any_component_is(monkeypatch, residual):
    monkeypatch.setattr(acsv, "critical_system_residual", lambda H, r, z: residual)
    cp = CriticalPoint.at(binomial_denominator(), (1.0, 1.0), (0.5, 0.5))
    assert math.isnan(cp.residual_norm)


def _numpy_residual(H, r, z):
    """The residual as it was computed on numpy arrays and scalars: the test oracle."""
    zv, rv = np.asarray(z, dtype=float), np.asarray(r, dtype=float)
    ell = H.num_vars
    partials = [acsv._evaluate(g, zv) for g in H.gradient]
    out = np.empty(ell)
    out[0] = acsv._evaluate(H, zv)
    last = zv[ell - 1] * partials[ell - 1]
    for j in range(ell - 1):
        out[j + 1] = rv[ell - 1] * zv[j] * partials[j] - rv[j] * last
    return out


def test_residual_matches_the_numpy_arithmetic_bit_for_bit():
    H_sticky = sticky.pair_generating_denominator()
    H_synthesis = synthesis.pair_generating_denominator()
    cases = [
        (H_sticky, sticky.critical_point_closed_form(rho, delta))
        for rho in np.arange(0.05, 0.96, 0.05)
        for delta in np.arange(0.05, 1.0, 0.05)
        if 2.0 - delta - 2.0 * rho > 0.0
    ]
    cases += [
        (H_synthesis, synthesis.critical_point(tau, delta))
        for tau in np.arange(1.3, 2.45, 0.1)
        for delta in np.arange(0.02, synthesis.delta_max(tau)[0], 0.02)
    ]
    assert len(cases) == 639
    for H, cp in cases:
        want = _numpy_residual(H, cp.direction, cp.z)
        assert critical_system_residual(H, cp.direction, cp.z) == want.tolist(), cp
        assert cp.residual_norm == float(np.max(np.abs(want)))


def test_residual_is_a_list_of_floats_and_its_norm_the_max():
    res = critical_system_residual(binomial_denominator(), (1.0, 1.0), (0.4, 0.3))
    assert type(res) is list and all(type(c) is float for c in res)
    cp = CriticalPoint.at(binomial_denominator(), (1.0, 1.0), (0.4, 0.3))
    assert cp.residual_norm == max(abs(c) for c in res)


# ------------------------------------------------------- on-demand residual norm


def _no_residual(*args):
    raise AssertionError("critical_system_residual called")


@pytest.mark.parametrize(
    "error, z, r",
    [
        (DomainError, (math.nan, 0.5), (1.0, 1.0)),
        (DimensionMismatchError, (0.5,), (1.0, 1.0)),
        (DomainError, (0.5, 0.5), (1.0, -1.0)),
        (DimensionMismatchError, (0.5, 0.5), (1.0,)),
    ],
)
def test_record_checks_its_point_and_direction_without_a_residual(monkeypatch, error, z, r):
    monkeypatch.setattr(acsv, "critical_system_residual", _no_residual)
    with pytest.raises(error):
        CriticalPoint.at(binomial_denominator(), r, z)
    # a good point is recorded without evaluating the residual
    cp = CriticalPoint.at(binomial_denominator(), (1.0, 1.0), (0.5, 0.5))
    assert cp == ((0.5, 0.5), (1.0, 1.0), 0, binomial_denominator())


_RECORDS = {
    # the README point commands, and a Newton solve
    "sticky": lambda: sticky.evaluate_point(0.125, 0.5).critical_point,
    "synthesis": lambda: synthesis.evaluate_point(2.0, 0.3).critical_point,
    "newton": lambda: solve_critical_point(synthesis.pair_generating_denominator(), (1.0, 4.0, 0.3)),
}


@pytest.mark.parametrize("name", _RECORDS)
def test_each_residual_norm_access_is_the_norm_of_its_record(name):
    cp = _RECORDS[name]()
    first, second = cp.residual_norm, cp.residual_norm
    norm = acsv._max_norm(critical_system_residual(cp.H, cp.direction, cp.z))
    assert repr(first) == repr(second) == repr(norm)


def test_records_of_different_polynomials_differ():
    z, r = (0.5, 0.5), (1.0, 1.0)
    other = SparseMultivariatePolynomial(2, [((0, 0), 2.0), ((1, 0), -1.0)])
    a = CriticalPoint.at(binomial_denominator(), r, z)
    b = CriticalPoint.at(other, r, z)
    assert a != b
    assert a == CriticalPoint.at(binomial_denominator(), r, z)
    assert hash(a) == hash(CriticalPoint.at(binomial_denominator(), r, z))
    assert repr(b) == (
        "CriticalPoint(z=(0.5, 0.5), direction=(1.0, 1.0), iterations=0, H="
        "SparseMultivariatePolynomial(num_vars=2, terms=(((0, 0), 2.0), ((1, 0), -1.0))))"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (CriticalPoint.at(binomial_denominator(), (1.0, 1.0), (0.5, 0.5)), "z"),
        (CriticalPoint.at(binomial_denominator(), (1.0, 1.0), (0.5, 0.5)), "residual_norm"),
        (binomial_denominator(), "terms"),
        (binomial_denominator(), "gradient"),
    ],
)
def test_assigning_a_field_of_a_record_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_equal_polynomials_share_one_derivative_table():
    a, b = binomial_denominator(), binomial_denominator()
    assert a == b and a is not b
    assert a.gradient is b.gradient
    assert a.hessian[0][1] is b.hessian[0][1]


def test_a_synthesis_curve_never_evaluates_the_residual(monkeypatch):
    from gvbound.curves import CurveSpec, build_curves

    points = []
    critical_point = synthesis.critical_point

    def recorded(tau, delta):
        points.append(critical_point(tau, delta))
        return points[-1]

    monkeypatch.setattr(synthesis, "critical_point", recorded)
    monkeypatch.setattr(acsv, "critical_system_residual", _no_residual)
    build_curves(CurveSpec("synthesis", ("gv", "lb", "capacity"), 0.0, 0.75, 76, tau=2.0))
    assert len(points) > 50  # the smooth piece, delta < delta_max(2) = 0.698


_ENTRY_POINTS = [
    ("evaluate", lambda z: binomial_denominator()(z)),
    ("residual point", lambda z: critical_system_residual(binomial_denominator(), (1.0, 1.0), z)),
    ("residual direction", lambda r: critical_system_residual(binomial_denominator(), r, (0.5, 0.5))),
    ("record", lambda z: CriticalPoint.at(binomial_denominator(), (1.0, 1.0), z)),
    ("solver start", lambda z: solve_critical_point(binomial_denominator(), (1.0, 1.0), z)),
    ("solver direction", lambda r: solve_critical_point(binomial_denominator(), r)),
    ("leading term point", lambda z: leading_term(binomial_denominator(), ONE, (1.0, 1.0), z, 4)),
    ("leading term direction", lambda r: leading_term(binomial_denominator(), ONE, r, (0.5, 0.5), 4)),
]


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[name for name, _ in _ENTRY_POINTS])
@pytest.mark.parametrize(
    "vector", [0.5, [[0.5, 0.5]], [[0.5], [0.5]], [0.5, [0.5, 0.5]], [0.5], np.array(0.5)]
)
def test_badly_shaped_vectors_raise_dimension_mismatch(name, call, vector):
    with pytest.raises(DimensionMismatchError):
        call(vector)


@pytest.mark.parametrize("name, call", _ENTRY_POINTS, ids=[name for name, _ in _ENTRY_POINTS])
@pytest.mark.parametrize(
    "vector",
    [[None, 0.5], ["a", 0.5], [0.5, object()], [math.nan, 0.5], [0.5, math.inf], [10**400, 0.5]],
)
def test_non_numeric_or_non_finite_coordinates_raise_domain_error(name, call, vector):
    with pytest.raises(DomainError):
        call(vector)


def steep_denominator() -> SparseMultivariatePolynomial:
    """H(x, y) = 1 - x^200 - y, whose x^200 overflows from x = 36 on."""
    return SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((200, 0), -1.0), ((0, 1), -1.0)])


def test_newton_halves_a_step_whose_evaluation_overflows():
    # from (0.9, 0.1) the first full steps on 1 - x^200 - y land where x^200
    # overflows; the residual there is not finite, so the step is halved
    H = steep_denominator()
    overflows = []
    power = acsv._power

    def counted(base, e):
        value = power(base, e)
        overflows.append(math.isinf(value))
        return value

    acsv._power = counted
    try:
        cp = solve_critical_point(H, (1.0, 1.0), initial=(0.9, 0.1))
    finally:
        acsv._power = power
    assert any(overflows)
    # critical point: y = 200 x^200 = 1 - x^200
    np.testing.assert_allclose(cp.z, [(1.0 / 201.0) ** (1.0 / 200.0), 200.0 / 201.0], rtol=1e-12)
    assert cp.residual_norm <= 1e-12


_SOLVES = pytest.mark.parametrize(
    "H, r, initial",
    [*verify_solves(), (steep_denominator(), (1.0, 1.0), (0.9, 0.1))],
    ids=[*(f"verify-{k}" for k in range(14)), "steep-overflowing"],
)


def _eliminate_solve(a, b):
    return acsv._eliminate(a, b)[1]


@_SOLVES
def test_solver_equals_the_full_evaluation_route_bit_for_bit(H, r, initial):
    # the solver evaluates each distinct second partial once and solves for the
    # residual its last accepted candidate left; the reference evaluates all l^2
    # partials, recomputes the residual at each iterate and builds the Jacobian on
    # numpy arrays, whose elementwise float64 arithmetic rounds as Python's
    cp = solve_critical_point(H, r, initial=initial)
    z, iterations = solve_by_full_evaluations(H, r, initial, _eliminate_solve)
    assert [c.hex() for c in cp.z] == [c.hex() for c in z]
    assert cp.iterations == iterations


@_SOLVES
def test_solver_takes_the_steps_of_a_lapack_solve(H, r, initial):
    # LAPACK's getrf and getrs round in another order than _eliminate, so the
    # points may differ in their last bits, but not the steps taken
    cp = solve_critical_point(H, r, initial=initial)
    z, iterations = solve_by_full_evaluations(H, r, initial, np.linalg.solve)
    assert cp.iterations == iterations
    np.testing.assert_allclose(cp.z, z, rtol=1e-14, atol=0.0)


def test_solver_hands_the_residual_a_list_of_floats(monkeypatch):
    # a numpy candidate would take _real's slow path once per coordinate
    points = []
    residual = acsv.critical_system_residual

    def recorded(H, r, z):
        points.append(z)
        return residual(H, r, z)

    monkeypatch.setattr(acsv, "critical_system_residual", recorded)
    for H, r, initial in verify_solves():
        solve_critical_point(H, r, initial=initial)
    assert len(points) > 2 * 14
    assert all(type(z) is list and all(type(c) is float for c in z) for z in points)


# ------------------------------------------------------- Gaussian elimination


def _square_systems(m):
    # no tiny entries, which make a well-conditioned system of huge or subnormal values
    entries = st.one_of(st.just(0.0), st.floats(0.125, 10.0), st.floats(-10.0, -0.125))
    return st.tuples(
        st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m),
        st.lists(entries, min_size=m, max_size=m),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(_square_systems))
def test_eliminate_agrees_with_lapack_on_well_conditioned_systems(system):
    a, b = system
    singular_values = np.linalg.svd(np.array(a), compute_uv=False)
    assume(singular_values[-1] * 100.0 > singular_values[0])  # condition number below 100
    kept = ([row[:] for row in a], b[:])
    det, x = acsv._eliminate(a, b)
    assert (a, b) == kept
    want = np.linalg.solve(a, b).tolist()
    assert max(abs(c - w) for c, w in zip(x, want)) <= 1e-12 * max(map(abs, want))
    want_det = float(np.linalg.det(a))
    assert abs(det - want_det) <= 1e-12 * abs(want_det)


def test_eliminate_swaps_rows_for_a_zero_leading_entry():
    # det [[0, 1], [2, 3]] = -2: the swap flips the sign of the pivot product
    assert acsv._eliminate([[0.0, 1.0], [2.0, 3.0]], [1.0, 5.0]) == (-2.0, [1.0, 1.0])


@pytest.mark.parametrize(
    "a",
    [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 2.0]], [[0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    ids=["dependent-rows", "zero-column", "zero", "zero-last-pivot"],
)
def test_eliminate_reports_an_exact_zero_pivot(a):
    assert acsv._eliminate(a, [1.0] * len(a)) == (0.0, None)


def test_eliminate_solves_when_only_the_pivot_product_underflows():
    # each pivot is 1e-200; their product 1e-400 is below the smallest float
    tiny = 1e-200
    det, x = acsv._eliminate([[tiny, 0.0], [0.0, tiny]], [tiny, 2.0 * tiny])
    assert det == 0.0
    assert x == [1.0, 2.0]


def test_hessian_table_shares_only_equal_mixed_partials():
    # 0.1 x^3 y^5: d/dy d/dx gives (0.1 * 3) * 5 = 1.5000000000000002 and d/dx d/dy
    # (0.1 * 5) * 3 = 1.5, so the two mixed partials keep an evaluation each
    skew = SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((3, 5), 0.1)])
    assert skew.hessian[0][1] != skew.hessian[1][0]
    # the sticky H's 16 second partials hold 10 distinct ones; the synthesis H's 9
    # hold 5, since d2H/dx2 and d2H/dz2 are both the zero polynomial
    for H, distinct in ((skew, 4), (sticky.pair_generating_denominator(), 10),
                        (synthesis.pair_generating_denominator(), 5)):
        partials, index = acsv._hessian_table(H)
        assert len(partials) == distinct
        assert [[partials[i] for i in row] for row in index] == [list(row) for row in H.hessian]
    zv = [0.7, 1.3]
    grad, hess = acsv._derivatives(skew, zv)
    assert grad == [evaluate_by_powers(g, zv) for g in skew.gradient]
    want = [[evaluate_by_powers(h, zv) for h in row] for row in skew.hessian]
    assert hess == want and want[0][1] != want[1][0]
