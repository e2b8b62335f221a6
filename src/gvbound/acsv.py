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
Each polynomial builds its gradient and Hessian once, on first use.

Evaluation, the critical-system residual and CriticalPoint records run
on Python floats, so the closed-form critical points of the channels
never load numpy.  A power that overflows gives an infinity, as it would
in IEEE arithmetic, instead of raising.  Only the Newton solver and the
leading term, which need linear algebra, import numpy when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DimensionMismatchError, DomainError, NonConvergenceError
from .numeric import _finite_float, check_sizes

if TYPE_CHECKING:
    import numpy as np

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


@dataclass(frozen=True)
class SparseMultivariatePolynomial:
    """Multivariate polynomial as a sparse list of monomial terms.

    Attributes:
        num_vars: number of variables l >= 1.
        terms: tuple of (exponent vector, coefficient) pairs with unique
            exponent vectors and nonzero coefficients.

    Raises:
        DomainError: for a negative or non-integer exponent, or a
            coefficient that is not a finite real number.
    """

    num_vars: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __init__(self, num_vars: int, terms: Iterable[tuple[Sequence[int], float]]):
        check_sizes(at_least=1, num_vars=num_vars)
        merged: dict[tuple[int, ...], float] = {}
        for exponents, coefficient in terms:
            for e in exponents:
                check_sizes(exponent=e)
            key = tuple(int(e) for e in exponents)
            if len(key) != num_vars:
                raise DimensionMismatchError(
                    f"term exponent vector {key} has length {len(key)}, expected {num_vars}"
                )
            term = _finite_float(coefficient, "polynomial coefficients")
            # like terms are summed, and a sum of finite floats can overflow
            merged[key] = _finite_float(merged.get(key, 0.0) + term, "polynomial coefficients")
        cleaned = tuple(
            (exponents, coefficient)
            for exponents, coefficient in sorted(merged.items())
            if coefficient != 0.0
        )
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "terms", cleaned)

    def partial(self, var: int) -> "SparseMultivariatePolynomial":
        """Exact partial derivative with respect to variable index var."""
        if not 0 <= var < self.num_vars:
            raise DomainError(f"variable index {var} out of range for {self.num_vars} vars")
        new_terms = []
        for exponents, coefficient in self.terms:
            e = exponents[var]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[var] = e - 1
            new_terms.append((lowered, coefficient * e))
        return SparseMultivariatePolynomial(self.num_vars, new_terms)

    @cached_property
    def gradient(self) -> tuple["SparseMultivariatePolynomial", ...]:
        """First partials dH/dz_j, built once per polynomial."""
        return tuple(self.partial(j) for j in range(self.num_vars))

    @cached_property
    def hessian(self) -> tuple[tuple["SparseMultivariatePolynomial", ...], ...]:
        """Second partials, hessian[j][k] = d2H/dz_j dz_k, built once per polynomial."""
        return tuple(g.gradient for g in self.gradient)

    def __call__(self, z: Sequence[float]) -> float:
        """Value at z by direct monomial summation."""
        return _evaluate(self, _check_point(self, z))


@dataclass(frozen=True)
class CriticalPoint:
    """Positive solution of the critical-point system with diagnostics.

    Attributes:
        z: the critical point coordinates, all strictly positive.
        direction: the direction vector r the system was solved for.
        iterations: Newton steps taken to reach z; 0 for a closed form.
        H: the denominator z is a point of; not compared, hashed or shown.
        residual_norm: max-norm of the system residual at z, computed on
            first access (a sweep that never reads it never pays for it).
    """

    z: tuple[float, ...]
    direction: tuple[float, ...]
    iterations: int
    H: SparseMultivariatePolynomial = field(compare=False, repr=False)

    @classmethod
    def at(
        cls, H: SparseMultivariatePolynomial, r: Sequence[float], z: Sequence[float],
        iterations: int = 0,
    ) -> "CriticalPoint":
        """Record of the point z of H in direction r; z and r are checked here."""
        zv = _check_point(H, z)
        rv = _check_direction(H, r)
        return cls(tuple(zv), tuple(rv), iterations, H)

    @cached_property
    def residual_norm(self) -> float:
        return _residual_norm(self.H, self.direction, self.z)


def _vector(H: SparseMultivariatePolynomial, values: Sequence[float], what: str) -> list[float]:
    """values as a list of H.num_vars floats.

    DimensionMismatchError for a scalar, a nested sequence or another
    length; DomainError for a coordinate that is not a real number, or
    one too large for a float.
    """
    try:
        items = list(values)
    except TypeError:
        raise DimensionMismatchError(
            f"{what} must be a sequence of {H.num_vars} numbers, got {values!r}"
        ) from None
    if len(items) != H.num_vars:
        raise DimensionMismatchError(
            f"{what} has {len(items)} coordinates, polynomial has {H.num_vars} variables"
        )
    vector = []
    for c in items:
        try:
            vector.append(float(c))
        except (TypeError, ValueError):
            if isinstance(c, Iterable) and not isinstance(c, str):
                raise DimensionMismatchError(
                    f"{what} must be a flat sequence of numbers, got {values!r}"
                ) from None
            raise DomainError(f"{what} coordinates must be real numbers, got {c!r}") from None
        except OverflowError:  # an integer past the float64 range
            raise DomainError(f"{what} coordinates must be finite, got {c!r}") from None
    return vector


def _check_point(H: SparseMultivariatePolynomial, z: Sequence[float]) -> list[float]:
    zv = _vector(H, z, "point")
    if not all(map(math.isfinite, zv)):
        raise DomainError(f"point coordinates must be finite, got {zv}")
    return zv


def _check_direction(H: SparseMultivariatePolynomial, r: Sequence[float]) -> list[float]:
    rv = _vector(H, r, "direction")
    if not all(0.0 < c < math.inf for c in rv):
        raise DomainError(f"direction components must be positive and finite, got {r}")
    return rv


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
                term *= _power(base, e)
        total += term
    return total


def _derivatives(H: SparseMultivariatePolynomial, zv: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Gradient vector and Hessian matrix of H at the checked point zv."""
    import numpy as np

    grad = np.array([_evaluate(g, zv) for g in H.gradient])
    hess = np.array([[_evaluate(h, zv) for h in row] for row in H.hessian])
    return grad, hess


def critical_system_residual(
    H: SparseMultivariatePolynomial,
    r: Sequence[float],
    z: Sequence[float],
) -> list[float]:
    """Residual vector of the critical-point system at z.

    Component 0 is H(z); component j (1 <= j <= l-1) is
    r_l * z_j * dH/dz_j - r_j * z_l * dH/dz_l, indexing variables from 1.
    """
    zv = _check_point(H, z)
    rv = _check_direction(H, r)
    partials = [_evaluate(g, zv) for g in H.gradient]
    last = zv[-1] * partials[-1]
    return [_evaluate(H, zv)] + [
        rv[-1] * zj * pj - rj * last for zj, pj, rj in zip(zv[:-1], partials, rv)
    ]


def _residual_norm(
    H: SparseMultivariatePolynomial, r: Sequence[float], z: Sequence[float]
) -> float:
    """Max-norm of the residual; NaN when any component is NaN."""
    norms = [abs(c) for c in critical_system_residual(H, r, z)]
    return math.nan if any(map(math.isnan, norms)) else max(norms)


def growth_exponent(cp: CriticalPoint) -> float:
    """Exponential rate -sum_i r_i log2 z_i* in bits per symbol."""
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
        DomainError: if n is not a positive integer, n r is not integral
            or has a coordinate that rounds below 1, w is not a positive
            critical point in direction r, or the Hessian or the constant
            is not positive there.
    """
    import numpy as np

    check_sizes(at_least=1, n=n)
    rv = np.array(_check_direction(H, r))
    zv = np.array(_check_point(H, w))
    if G.num_vars != H.num_vars:
        raise DimensionMismatchError(
            f"numerator has {G.num_vars} variables, denominator has {H.num_vars}"
        )
    if not np.all(zv > 0.0):
        raise DomainError(f"point must be strictly positive, got {list(w)}")
    index = n * rv
    rounded = np.round(index)
    if np.any(np.abs(index - rounded) > _INTEGRAL_INDEX_TOL * np.maximum(index, 1.0)):
        raise DomainError(f"n * r must be integral, got {index.tolist()}")
    if np.any(rounded < 1.0):  # r > 0, but an n r_i near 0 passes the test above as 0
        raise DomainError(f"n * r must be at least 1 in every coordinate, got {index.tolist()}")
    residual = _residual_norm(H, rv, zv)
    if not residual <= _LEADING_RESIDUAL_TOL:
        raise DomainError(
            f"point is not critical in direction {rv.tolist()} (residual {residual:.2e})"
        )
    d = H.num_vars
    grad, second = _derivatives(H, zv.tolist())
    scale = zv[-1] * grad[-1]
    if scale == 0.0:
        raise DomainError("dH/dz_d vanishes at the point; choose another last variable")
    u = np.outer(zv, zv) * second / scale
    v = rv[:-1] / rv[-1]
    u_d = u[:-1, -1]
    hess = (
        (1.0 + u[-1, -1]) * np.outer(v, v)
        + u[:-1, :-1]
        - np.outer(u_d, v)
        - np.outer(v, u_d)
        + np.diag(v)
    )
    det = float(np.linalg.det(hess))
    constant = -_evaluate(G, zv.tolist()) / scale
    if not (det > 0.0 and constant > 0.0):
        raise DomainError(
            f"no positive leading term at this point (det Hess {det:.3e}, constant {constant:.3e})"
        )
    return (
        -n * float(np.dot(rv, np.log2(zv)))
        + 0.5 * (1 - d) * math.log2(2.0 * math.pi * rv[-1] * n)
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
    import numpy as np

    rv = np.array(_check_direction(H, r))
    ell = H.num_vars
    z = np.full(ell, 0.5) if initial is None else np.array(_check_point(H, initial))
    if np.any(z <= 0.0):
        raise DomainError("initial point must be strictly positive")

    def jacobian(zv: np.ndarray) -> np.ndarray:
        # scaled[j, k] = d/dz_k (z_j dH/dz_j); row 0 is grad H, row j+1 the gradient of residual j+1
        grad, hess = _derivatives(H, zv.tolist())
        scaled = zv[:, None] * hess + np.diag(grad)
        return np.vstack((grad, rv[-1] * scaled[:-1] - np.outer(rv[:-1], scaled[-1])))

    norm = _residual_norm(H, rv, z)
    iterations = 0
    while not norm <= _SOLVE_TOL:
        if iterations == _MAX_NEWTON_ITER:
            raise NonConvergenceError(
                f"Newton iteration did not reach tolerance {_SOLVE_TOL} "
                f"(final residual norm {norm:.3e})"
            )
        try:
            step = np.linalg.solve(jacobian(z), -np.array(critical_system_residual(H, rv, z)))
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"singular Jacobian at iterate {z.tolist()}"
            ) from exc
        scale = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            candidate = z + scale * step
            if np.all(candidate > 0.0):
                cand_norm = _residual_norm(H, rv, candidate)
                if cand_norm < norm or cand_norm <= _SOLVE_TOL:
                    z, norm = candidate, cand_norm
                    break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"no residual-decreasing step found at iterate {z.tolist()} "
                f"(residual norm {norm:.3e})"
            )
        iterations += 1
    return CriticalPoint.at(H, rv, z, iterations)
