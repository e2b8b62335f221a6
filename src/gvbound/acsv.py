"""Smooth critical points of multivariate rational generating functions.

For a generating function F(z) = G(z) / H(z) in l variables whose
coefficient array a_k grows along a fixed direction k = n * r, the
exponential growth rate is controlled by the positive critical point of
the denominator variety: the solution z* > 0 of

    H(z) = 0,
    r_l * z_j * dH/dz_j = r_j * z_l * dH/dz_l   for j = 1 .. l-1,

and the rate itself is  lim (log2 a_{nr}) / n = -sum_i r_i log2 z_i*.
growth_exponent gives this exponential order alone.  leading_term adds
the subexponential factor, Theta(n^(-(l-1)/2)) with a Hessian-dependent
constant, and returns log2 of the smooth-point leading term that the
coefficient equals up to a factor 1 + O(1/n).

The denominator is held as a sparse term list, so partial derivatives
are exact and the Newton iteration below needs no finite differences.
The gradient and Hessian tables are built once per polynomial value, on
first use, and equal polynomials share them.

Everything runs on Python floats and lists: one Gaussian elimination,
with partial pivoting, gives the Newton step and the Hessian determinant
(at most 4 x 4), and an overflowing power gives an infinity, not an error.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, DomainError, NonConvergenceError
from .numeric import _ABOVE_0, _FLOAT_MAX, _checked_make, _items, _real, _shown, check_sizes

__all__ = [
    "SparseMultivariatePolynomial",
    "CriticalPoint",
    "critical_system_residual",
    "solve_critical_point",
    "growth_exponent",
    "leading_term",
]

_SOLVE_TOL = 1e-12
_LEADING_RESIDUAL_TOL = 1e-9
_INTEGRAL_INDEX_TOL = 1e-9
_MAX_NEWTON_ITER = 100
_MAX_STEP_HALVINGS = 30


class _PolynomialFields(NamedTuple):
    num_vars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]


class SparseMultivariatePolynomial(_PolynomialFields):
    """Multivariate polynomial as a sparse list of monomial terms.

    Attributes:
        num_vars: number of variables l >= 1.
        terms: tuple of (exponent vector, coefficient) pairs with unique
            exponent vectors and nonzero coefficients.

    Raises:
        DomainError: for a negative or non-integer exponent, or a
            coefficient that is not a finite real number.
        DimensionMismatchError: for terms that are not a sequence of
            (exponents, coefficient) pairs, or exponents of another length.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, num_vars: int, terms: Iterable[tuple[Sequence[int], float]]):
        check_sizes(at_least=1, num_vars=num_vars)
        merged: dict[tuple[int, ...], float] = {}
        what = "polynomial coefficients must be finite real numbers"
        shape = f"term exponents must be {_shown(num_vars)} integers"
        for term in _items(terms, "terms must be a sequence of (exponents, coefficient) pairs"):
            exponents, coefficient = _items(term, "a term must be (exponents, coefficient)", 2)
            exponents = _items(exponents, shape, num_vars)
            for e in exponents:
                check_sizes(exponent=e)
            key = tuple(int(e) for e in exponents)
            # like terms are summed, and a sum of finite floats can overflow
            merged[key] = _real(merged.get(key, 0.0) + _real(coefficient, what), what)
        cleaned = tuple(
            (exponents, coefficient)
            for exponents, coefficient in sorted(merged.items())
            if coefficient != 0.0
        )
        return super().__new__(cls, int(num_vars), cleaned)

    def partial(self, var: int) -> "SparseMultivariatePolynomial":
        """Exact partial derivative with respect to variable index var."""
        check_sizes(var=var)
        if var >= self.num_vars:
            raise DomainError(
                f"variable index {_shown(var)} out of range for {self.num_vars} vars"
            )
        new_terms = []
        for exponents, coefficient in self.terms:
            e = exponents[var]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[var] = e - 1
            new_terms.append((lowered, coefficient * e))
        return SparseMultivariatePolynomial(self.num_vars, new_terms)

    @property
    def gradient(self) -> tuple["SparseMultivariatePolynomial", ...]:
        """First partials dH/dz_j, built once per polynomial value."""
        return _gradient(self)

    @property
    def hessian(self) -> tuple[tuple["SparseMultivariatePolynomial", ...], ...]:
        """Second partials, hessian[j][k] = d2H/dz_j dz_k."""
        return tuple(g.gradient for g in self.gradient)

    def __call__(self, z: Sequence[float]) -> float:
        """Value at z by direct monomial summation."""
        return _evaluate(self, _check_point(self, z))


@cache
def _gradient(H: SparseMultivariatePolynomial) -> tuple[SparseMultivariatePolynomial, ...]:
    return tuple(H.partial(j) for j in range(H.num_vars))


class CriticalPoint(NamedTuple):
    """Positive solution of the critical-point system with diagnostics.

    Attributes:
        z: the critical point coordinates, all strictly positive.
        direction: the direction vector r the system was solved for.
        iterations: Newton steps taken to reach z; 0 for a closed form.
        H: the denominator z is a point of.
        residual_norm: max-norm of the system residual at z, computed on
            each access and never at construction (a sweep that never
            reads it never pays for it).
    """

    z: tuple[float, ...]
    direction: tuple[float, ...]
    iterations: int
    H: SparseMultivariatePolynomial

    @classmethod
    def at(
        cls, H: SparseMultivariatePolynomial, r: Sequence[float], z: Sequence[float],
        iterations: int = 0,
    ) -> "CriticalPoint":
        """Record of the point z of H in direction r; H, z and r are checked here."""
        _check_polynomial(H)
        zv = _check_point(H, z)
        rv = _check_direction(H, r)
        return cls(tuple(zv), tuple(rv), iterations, H)

    @property
    def residual_norm(self) -> float:
        return _max_norm(critical_system_residual(self.H, self.direction, self.z))


def _vector(
    H: SparseMultivariatePolynomial, values: Sequence[float], name: str, what: str,
    lo: float = -_FLOAT_MAX,
) -> list[float]:
    """values as a list of H.num_vars floats, each in [lo, float64 max].

    DimensionMismatchError for a scalar, a nested sequence or another length;
    DomainError(f"{what}, got ...") for the first coordinate out of range.
    """
    shape = f"{name} must be a sequence of {H.num_vars} numbers"
    items = _items(values, shape, H.num_vars)
    try:
        return [_real(c, what, lo) for c in items]
    except DomainError:
        if any(isinstance(c, Iterable) and not isinstance(c, (str, bytes)) for c in items):
            raise DimensionMismatchError(f"{shape}, got {_shown(values)}") from None
        raise


def _check_polynomial(H: SparseMultivariatePolynomial, name: str = "H") -> None:
    if not isinstance(H, SparseMultivariatePolynomial):
        raise DomainError(f"{name} must be a SparseMultivariatePolynomial, got {_shown(H)}")


def _check_point(H: SparseMultivariatePolynomial, z: Sequence[float]) -> list[float]:
    return _vector(H, z, "point", "point coordinates must be finite")


def _check_direction(H: SparseMultivariatePolynomial, r: Sequence[float]) -> list[float]:
    return _vector(H, r, "direction", "direction components must be positive and finite", _ABOVE_0)


def _power(base: float, e: int) -> float:
    """base ** e, with a signed infinity where the power overflows."""
    try:
        return base ** e
    except OverflowError:
        return -math.inf if base < 0.0 and e % 2 else math.inf


def _evaluate(H: SparseMultivariatePolynomial, zv: Sequence[float]) -> float:
    total = 0.0
    for exponents, coefficient in H.terms:
        term = coefficient
        for base, e in zip(zv, exponents):
            if e:
                try:
                    term *= base ** e
                except OverflowError:
                    term *= _power(base, e)
        total += term
    return total


@cache
def _hessian_table(H: SparseMultivariatePolynomial) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The distinct second partials of H, and each hessian[j][k]'s index among them, by rows:
    d2H/dz_j dz_k and d2H/dz_k dz_j share one only where they are equal, which a fractional
    coefficient, rounded in another order, can keep them from."""
    distinct: dict[SparseMultivariatePolynomial, int] = {}
    index = tuple(tuple(distinct.setdefault(h, len(distinct)) for h in row) for row in H.hessian)
    return tuple(distinct), index


def _derivatives(H: SparseMultivariatePolynomial, zv: list[float]) -> tuple[list, list]:
    """Gradient vector and Hessian matrix (a list of rows) of H at the checked point zv."""
    partials, index = _hessian_table(H)
    values = [_evaluate(h, zv) for h in partials]
    return [_evaluate(g, zv) for g in H.gradient], [[values[i] for i in row] for row in index]


def _eliminate(a: list[list[float]], b: list[float]) -> tuple[float, list[float] | None]:
    """(det a, x with a x = b) by Gaussian elimination with partial pivoting, a and b kept, or
    (0.0, None) where a pivot is exactly 0.0: each is tested, since their product can underflow."""
    rows = [[*row, bi] for row, bi in zip(a, b)]
    det = 1.0
    for k in range(len(rows)):
        p = max(range(k, len(rows)), key=lambda i: abs(rows[i][k]))  # the first largest, as idamax
        if rows[p][k] == 0.0:
            return 0.0, None
        rows[k], rows[p] = rows[p], rows[k]
        det *= rows[k][k] if p == k else -rows[k][k]
        for row in rows[k + 1 :]:
            f = row[k] / rows[k][k]
            row[k + 1 :] = [c - f * t for c, t in zip(row[k + 1 :], rows[k][k + 1 :])]
    x = [row[-1] for row in rows]
    for k in reversed(range(len(x))):  # back substitution by columns, as LAPACK's trsv
        x[k] /= rows[k][k]
        x[:k] = [xi - row[k] * x[k] for xi, row in zip(x[:k], rows)]
    return det, x


def critical_system_residual(
    H: SparseMultivariatePolynomial,
    r: Sequence[float],
    z: Sequence[float],
) -> list[float]:
    """Residual vector of the critical-point system at z.

    Component 0 is H(z); component j (1 <= j <= l-1) is
    r_l * z_j * dH/dz_j - r_j * z_l * dH/dz_l, indexing variables from 1.
    """
    _check_polynomial(H)
    zv = _check_point(H, z)
    rv = _check_direction(H, r)
    partials = [_evaluate(g, zv) for g in H.gradient]
    last = zv[-1] * partials[-1]
    return [_evaluate(H, zv)] + [
        rv[-1] * zj * pj - rj * last for zj, pj, rj in zip(zv[:-1], partials, rv)
    ]


def _max_norm(residual: list[float]) -> float:
    """Max-norm of a residual vector; NaN when any component is NaN."""
    norms = [abs(c) for c in residual]
    return math.nan if any(map(math.isnan, norms)) else max(norms)


def growth_exponent(cp: CriticalPoint) -> float:
    """Exponential rate -sum_i r_i log2 z_i* in bits per symbol."""
    if not isinstance(cp, CriticalPoint):
        raise DomainError(f"cp must be a CriticalPoint, got {_shown(cp)}")
    return -sum(ri * math.log2(zi) for ri, zi in zip(cp.direction, cp.z))


def leading_term(
    H: SparseMultivariatePolynomial,
    G: SparseMultivariatePolynomial,
    r: Sequence[float],
    w: Sequence[float],
    n: int,
) -> float:
    """log2 of the smooth-point leading term of the coefficient of z^(n r) in G/H.

    w must be a strictly positive, minimal, smooth critical point of H in
    direction r; the coefficient is then L_n (1 + O(1/n)) with

        log2 L_n = -n sum_i r_i log2 w_i + ((1-d)/2) log2(2 pi r_d n)
                   - (1/2) log2 det Hess + log2(-G(w) / (w_d dH/dz_d(w)))

    (Melczer, An Invitation to Analytic Combinatorics, Thm 5.1), d the
    number of variables.  The (d-1) x (d-1) Hessian is built from the
    exact second partials, U_ij = w_i w_j d2H/dz_i dz_j / (w_d dH/dz_d)
    and V_i = r_i / r_d (Lemma 5.5).  The caller adds the terms of other
    minimal critical points, e.g. those given by a symmetry of H.

    Raises:
        DomainError: if H or G is not a SparseMultivariatePolynomial,
            n is not a positive integer that fits a float64,
            n r is not finite and integral or has a coordinate that rounds below 1,
            w is not a positive critical point in direction r, or the
            Hessian or the constant is not positive there.
    """
    _check_polynomial(H)
    _check_polynomial(G, "G")
    check_sizes(at_least=1, n=n)
    _real(n, "n must fit a float64")
    rv = _check_direction(H, r)
    zv = _check_point(H, w)
    if G.num_vars != H.num_vars:
        raise DimensionMismatchError(
            f"numerator has {G.num_vars} variables, denominator has {H.num_vars}"
        )
    if not all(c > 0.0 for c in zv):
        raise DomainError(f"point must be strictly positive, got {zv}")
    index = [_real(n * ri, "n * r must be finite") for ri in rv]
    if any(abs(c - round(c)) > _INTEGRAL_INDEX_TOL * max(c, 1.0) for c in index):
        raise DomainError(f"n * r must be integral, got {index}")
    if min(map(round, index)) < 1:  # r > 0, but an n r_i near 0 passes the test above as 0
        raise DomainError(f"n * r must be at least 1 in every coordinate, got {index}")
    residual = _max_norm(critical_system_residual(H, rv, zv))
    if not residual <= _LEADING_RESIDUAL_TOL:
        raise DomainError(f"point is not critical in direction {rv} (residual {residual:.2e})")
    grad, second = _derivatives(H, zv)
    scale = zv[-1] * grad[-1]
    if scale == 0.0:
        raise DomainError("dH/dz_d vanishes at the point; choose another last variable")
    u = [[zi * zj * s / scale for zj, s in zip(zv, row)] for zi, row in zip(zv, second)]
    v = [ri / rv[-1] for ri in rv[:-1]]
    c = 1.0 + u[-1][-1]
    hess = [
        [c * (vi * vj) + u[i][j] - u[i][-1] * vj - vi * u[j][-1] for j, vj in enumerate(v)]
        for i, vi in enumerate(v)
    ]
    for i, vi in enumerate(v):
        hess[i][i] += vi
    det, _ = _eliminate(hess, [0.0] * len(v))
    constant = -_evaluate(G, zv) / scale
    if not (det > 0.0 and constant > 0.0):
        raise DomainError(
            f"no positive leading term at this point (det Hess {det:.3e}, constant {constant:.3e})"
        )
    return (
        -n * sum(ri * math.log2(zi) for ri, zi in zip(rv, zv))
        + 0.5 * (1 - len(zv)) * math.log2(2.0 * math.pi * rv[-1] * n)
        - 0.5 * math.log2(det)
        + math.log2(constant)
    )


def solve_critical_point(
    H: SparseMultivariatePolynomial, r: Sequence[float], initial: Sequence[float] | None = None
) -> CriticalPoint:
    """Damped Newton iteration on the critical-point system, to residual norm 1e-12.

    Starts from `initial` (all coordinates 0.5 when omitted), keeps every
    iterate strictly positive, and halves the step up to 30 times per
    iteration whenever the residual norm would not decrease.

    Raises:
        NonConvergenceError: if no iterate reaches the tolerance; try a
            different initial point.
    """
    _check_polynomial(H)
    rv = _check_direction(H, r)
    z = [0.5] * H.num_vars if initial is None else _check_point(H, initial)
    if not all(c > 0.0 for c in z):
        raise DomainError("initial point must be strictly positive")

    residual = critical_system_residual(H, rv, z)
    norm = _max_norm(residual)
    iterations = 0
    while not norm <= _SOLVE_TOL:
        if iterations == _MAX_NEWTON_ITER:
            raise NonConvergenceError(
                f"Newton iteration did not reach tolerance {_SOLVE_TOL} "
                f"(final residual norm {norm:.3e})"
            )
        # scaled[j][k] = d/dz_k (z_j dH/dz_j); row 0 is grad H, row j+1 the gradient of residual j+1
        grad, hess = _derivatives(H, z)
        scaled = [[zj * h for h in row] for zj, row in zip(z, hess)]
        for j, g in enumerate(grad):
            scaled[j][j] += g
        jacobian = [grad] + [
            [rv[-1] * s - rj * t for s, t in zip(row, scaled[-1])]
            for row, rj in zip(scaled[:-1], rv)
        ]
        _, step = _eliminate(jacobian, [-c for c in residual])
        if step is None:
            raise NonConvergenceError(f"singular Jacobian at iterate {z}")
        scale = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            candidate = [zi + scale * si for zi, si in zip(z, step)]
            if all(c > 0.0 for c in candidate):
                cand_residual = critical_system_residual(H, rv, candidate)
                cand_norm = _max_norm(cand_residual)
                if cand_norm < norm or cand_norm <= _SOLVE_TOL:  # its residual is the next rhs
                    z, residual, norm = candidate, cand_residual, cand_norm
                    break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"no residual-decreasing step found at iterate {z} (residual norm {norm:.3e})"
            )
        iterations += 1
    return CriticalPoint.at(H, rv, z, iterations)
