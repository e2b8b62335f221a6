"""Smooth critical points of multivariate rational generating functions.

For a generating function F(z) = G(z) / H(z) in l variables whose
coefficient array a_k grows along a fixed direction k = n * r, the
exponential growth rate is controlled by the positive critical point of
the denominator variety: the solution z* > 0 of

    H(z) = 0,
    r_l * z_j * dH/dz_j = r_j * z_l * dH/dz_l   for j = 1 .. l-1,

and the rate itself is  lim (log2 a_{nr}) / n = -sum_i r_i log2 z_i*.
Only this exponential order is computed; the subexponential factor
(Theta(n^(-(l-1)/2)) with a Hessian-dependent constant) is reported as a
note, never as a number.

The denominator is held as a sparse term list, so partial derivatives
are exact and the Newton iteration below needs no finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonConvergenceError

__all__ = [
    "SparseMultivariatePolynomial",
    "CriticalPoint",
    "evaluate",
    "critical_system_residual",
    "solve_critical_point",
    "growth_exponent",
    "subexponential_note",
]

DEFAULT_SOLVE_TOL = 1e-12

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
        if num_vars < 1:
            raise DomainError(f"num_vars must be >= 1, got {num_vars}")
        merged: dict[tuple[int, ...], float] = {}
        for exponents, coefficient in terms:
            key = tuple(int(e) for e in exponents)
            if len(key) != num_vars:
                raise DimensionMismatchError(
                    f"term exponent vector {key} has length {len(key)}, expected {num_vars}"
                )
            if any(e < 0 for e in key):
                raise DomainError(f"negative exponent in term {key}")
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

    def __call__(self, z: Sequence[float]) -> float:
        return evaluate(self, z)


@dataclass(frozen=True)
class CriticalPoint:
    """Positive solution of the critical-point system with diagnostics.

    Attributes:
        z: the critical point coordinates, all strictly positive.
        residual_norm: max-norm of the system residual at z.
        direction: the direction vector r the system was solved for.
    """

    z: tuple[float, ...]
    residual_norm: float
    direction: tuple[float, ...]


def _check_point(H: SparseMultivariatePolynomial, z: Sequence[float]) -> np.ndarray:
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size != H.num_vars:
        raise DimensionMismatchError(
            f"point has {zv.size} coordinates, polynomial has {H.num_vars} variables"
        )
    return zv


def _check_direction(H: SparseMultivariatePolynomial, r: Sequence[float]) -> np.ndarray:
    rv = np.asarray(r, dtype=float)
    if rv.ndim != 1 or rv.size != H.num_vars:
        raise DimensionMismatchError(
            f"direction has {rv.size} components, polynomial has {H.num_vars} variables"
        )
    if np.any(rv <= 0.0):
        raise DomainError(f"direction components must be strictly positive, got {r}")
    return rv


def evaluate(H: SparseMultivariatePolynomial, z: Sequence[float]) -> float:
    """Value of H at z by direct monomial summation."""
    zv = _check_point(H, z)
    total = 0.0
    for exponents, coefficient in H.terms:
        term = coefficient
        for base, e in zip(zv, exponents):
            if e:
                term *= base ** e
        total += term
    return total


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
    partials = [evaluate(H.partial(j), zv) for j in range(ell)]
    out = np.empty(ell)
    out[0] = evaluate(H, zv)
    last = zv[ell - 1] * partials[ell - 1]
    for j in range(ell - 1):
        out[j + 1] = rv[ell - 1] * zv[j] * partials[j] - rv[j] * last
    return out


def growth_exponent(cp: CriticalPoint) -> float:
    """Exponential rate -sum_i r_i log2 z_i* in bits per symbol."""
    return -sum(ri * math.log2(zi) for ri, zi in zip(cp.direction, cp.z))


def subexponential_note(num_vars: int) -> str:
    """Order-of-magnitude note for the ignored subexponential factor."""
    return (
        f"subexponential factor Theta(n^(-{num_vars - 1}/2)) with a "
        "Hessian-dependent constant is not computed"
    )


def solve_critical_point(
    H: SparseMultivariatePolynomial,
    r: Sequence[float],
    initial: Sequence[float] | None = None,
    tol: float = DEFAULT_SOLVE_TOL,
) -> CriticalPoint:
    """Damped Newton iteration on the critical-point system.

    Starts from `initial` (all coordinates 0.5 when omitted), keeps every
    iterate strictly positive, and halves the step up to 30 times per
    iteration whenever the residual norm would not decrease.

    Raises:
        NonConvergenceError: if no iterate reaches the tolerance; try a
            different initial point.
    """
    rv = _check_direction(H, r)
    ell = H.num_vars
    if initial is None:
        z = np.full(ell, 0.5)
    else:
        z = np.array(initial, dtype=float)
        if z.size != ell:
            raise DimensionMismatchError(
                f"initial point has {z.size} coordinates, expected {ell}"
            )
        if np.any(z <= 0.0):
            raise DomainError("initial point must be strictly positive")

    first = [H.partial(j) for j in range(ell)]
    second = [[first[j].partial(k) for k in range(ell)] for j in range(ell)]

    def jacobian(zv: np.ndarray) -> np.ndarray:
        partials = [evaluate(first[j], zv) for j in range(ell)]
        hess = np.empty((ell, ell))
        for j in range(ell):
            for k in range(j, ell):
                hess[j, k] = hess[k, j] = evaluate(second[j][k], zv)
        jac = np.empty((ell, ell))
        jac[0, :] = partials
        for j in range(ell - 1):
            for k in range(ell):
                term = rv[ell - 1] * zv[j] * hess[j, k]
                if k == j:
                    term += rv[ell - 1] * partials[j]
                term -= rv[j] * zv[ell - 1] * hess[ell - 1, k]
                if k == ell - 1:
                    term -= rv[j] * partials[ell - 1]
                jac[j + 1, k] = term
        return jac

    residual = critical_system_residual(H, rv, z)
    norm = float(np.max(np.abs(residual)))
    for _ in range(_MAX_NEWTON_ITER):
        if norm <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(z), -residual)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"singular Jacobian at iterate {z.tolist()}"
            ) from exc
        scale = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            candidate = z + scale * step
            if np.all(candidate > 0.0):
                cand_residual = critical_system_residual(H, rv, candidate)
                cand_norm = float(np.max(np.abs(cand_residual)))
                if cand_norm < norm or cand_norm <= tol:
                    z, residual, norm = candidate, cand_residual, cand_norm
                    break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"no residual-decreasing step found at iterate {z.tolist()} "
                f"(residual norm {norm:.3e})"
            )
    if not norm <= tol:
        raise NonConvergenceError(
            f"Newton iteration did not reach tolerance {tol} "
            f"(final residual norm {norm:.3e})"
        )
    return CriticalPoint(
        z=tuple(float(v) for v in z),
        residual_norm=norm,
        direction=tuple(float(v) for v in rv),
    )
