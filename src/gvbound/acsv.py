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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonConvergenceError
from .numeric import check_sizes

__all__ = [
    "SparseMultivariatePolynomial",
    "CriticalPoint",
    "evaluate",
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
            merged[key] = merged.get(key, 0.0) + float(coefficient)
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
        return evaluate(self, z)


@dataclass(frozen=True)
class CriticalPoint:
    """Positive solution of the critical-point system with diagnostics.

    Attributes:
        z: the critical point coordinates, all strictly positive.
        residual_norm: max-norm of the system residual at z.
        direction: the direction vector r the system was solved for.
        iterations: Newton steps taken to reach z; 0 for a closed form.
    """

    z: tuple[float, ...]
    residual_norm: float
    direction: tuple[float, ...]
    iterations: int

    @classmethod
    def at(
        cls, H: SparseMultivariatePolynomial, r: Sequence[float], z: Sequence[float],
        iterations: int = 0,
    ) -> "CriticalPoint":
        """Record of the point z of H in direction r, with its residual norm."""
        return cls(tuple(map(float, z)), _residual_norm(H, r, z), tuple(map(float, r)), iterations)


def _check_point(H: SparseMultivariatePolynomial, z: Sequence[float]) -> np.ndarray:
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size != H.num_vars:
        raise DimensionMismatchError(
            f"point has {zv.size} coordinates, polynomial has {H.num_vars} variables"
        )
    if not np.all(np.isfinite(zv)):
        raise DomainError(f"point coordinates must be finite, got {zv.tolist()}")
    return zv


def _check_direction(H: SparseMultivariatePolynomial, r: Sequence[float]) -> np.ndarray:
    rv = np.asarray(r, dtype=float)
    if rv.ndim != 1 or rv.size != H.num_vars:
        raise DimensionMismatchError(
            f"direction has {rv.size} components, polynomial has {H.num_vars} variables"
        )
    if not np.all((rv > 0.0) & (rv < math.inf)):
        raise DomainError(f"direction components must be positive and finite, got {r}")
    return rv


def evaluate(H: SparseMultivariatePolynomial, z: Sequence[float]) -> float:
    """Value of H at z by direct monomial summation."""
    return _evaluate(H, _check_point(H, z))


def _evaluate(H: SparseMultivariatePolynomial, zv: np.ndarray) -> float:
    total = 0.0
    for exponents, coefficient in H.terms:
        term = coefficient
        for base, e in zip(zv, exponents):
            if e:
                term *= base ** e
        total += term
    return total


def _derivatives(H: SparseMultivariatePolynomial, zv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient vector and Hessian matrix of H at the checked point zv."""
    grad = np.array([_evaluate(g, zv) for g in H.gradient])
    hess = np.array([[_evaluate(h, zv) for h in row] for row in H.hessian])
    return grad, hess


def critical_system_residual(
    H: SparseMultivariatePolynomial,
    r: Sequence[float],
    z: Sequence[float],
) -> np.ndarray:
    """Residual vector of the critical-point system at z.

    Component 0 is H(z); component j (1 <= j <= l-1) is
    r_l * z_j * dH/dz_j - r_j * z_l * dH/dz_l, indexing variables from 1.
    """
    zv = _check_point(H, z)
    rv = _check_direction(H, r)
    ell = H.num_vars
    partials = [_evaluate(g, zv) for g in H.gradient]
    out = np.empty(ell)
    out[0] = _evaluate(H, zv)
    last = zv[ell - 1] * partials[ell - 1]
    for j in range(ell - 1):
        out[j + 1] = rv[ell - 1] * zv[j] * partials[j] - rv[j] * last
    return out


def _residual_norm(
    H: SparseMultivariatePolynomial, r: Sequence[float], z: Sequence[float]
) -> float:
    return float(np.max(np.abs(critical_system_residual(H, r, z))))


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
        DomainError: if n is not a positive integer, n r is not integral,
            w is not a positive critical point in direction r, or the
            Hessian or the constant is not positive there.
    """
    check_sizes(at_least=1, n=n)
    rv = _check_direction(H, r)
    zv = _check_point(H, w)
    if G.num_vars != H.num_vars:
        raise DimensionMismatchError(
            f"numerator has {G.num_vars} variables, denominator has {H.num_vars}"
        )
    if not np.all(zv > 0.0):
        raise DomainError(f"point must be strictly positive, got {list(w)}")
    index = n * rv
    if np.any(np.abs(index - np.round(index)) > _INTEGRAL_INDEX_TOL * np.maximum(index, 1.0)):
        raise DomainError(f"n * r must be integral, got {index.tolist()}")
    residual = _residual_norm(H, rv, zv)
    if not residual <= _LEADING_RESIDUAL_TOL:
        raise DomainError(
            f"point is not critical in direction {rv.tolist()} (residual {residual:.2e})"
        )
    d = H.num_vars
    grad, second = _derivatives(H, zv)
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
    constant = -_evaluate(G, zv) / scale
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
    rv = _check_direction(H, r)
    ell = H.num_vars
    z = np.full(ell, 0.5) if initial is None else _check_point(H, initial)
    if np.any(z <= 0.0):
        raise DomainError("initial point must be strictly positive")

    def jacobian(zv: np.ndarray) -> np.ndarray:
        # scaled[j, k] = d/dz_k (z_j dH/dz_j); row 0 is grad H, row j+1 the gradient of residual j+1
        grad, hess = _derivatives(H, zv)
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
            step = np.linalg.solve(jacobian(z), -critical_system_residual(H, rv, z))
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
