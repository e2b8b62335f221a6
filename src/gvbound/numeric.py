"""Shared numeric primitives: entropy, exact binomials, count modes, 1-D root finding.

Probabilities and densities are plain floats validated at the boundary
(a value in [0, 1]); counts are arbitrary-precision Python integers, or
their log2 in the "log2" count mode of the pair-count tables (CountMode).
All logarithms are base 2, so every rate in the package is measured in
bits per symbol.

A log2 table is stored as log2 counts.  Both pair-count builders take an
accumulator mode from a bound on their counts (CountMode._accumulator),
build the table in it and finish it once (CountMode._finish): a log2
table whose counts fit float64 (at most 2^1000) is built in linear
float64 counts and takes log2 at the end, a larger one in log2 counts.

Everything here but the count modes runs on Python floats.  numpy is
imported on the first count_mode() call, which only the pair-count tables
make, so the closed forms and the sticky count_pairs_exact never load it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import (
    DomainError, MemoryBudgetError, NoRootFoundError, NoSignChangeError, NonConvergenceError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NEG_INF",
    "TABLE_CELL_BUDGET",
    "BracketedRoot",
    "CountMode",
    "RealPolynomial",
    "entropy",
    "binomial_exact",
    "check_sizes",
    "count_mode",
    "find_root_bisection",
    "smallest_positive_root",
]

NEG_INF = float("-inf")
TABLE_CELL_BUDGET = 1 << 26

# Largest log2 count bound at which a log2 table is built in linear
# float64 counts (CountMode._accumulator).  Far enough below the float64
# overflow at 2^1024 that no sum of counts under the bound can reach it.
_LINEAR_LOG2_BITS = 1000

_ROOT_TOL = 1e-12
_SCAN_MAX = 10.0  # right end of the smallest-positive-root scan
_BISECTION_MAX_ITER = 200
_SCAN_CELLS = 1024
_SCAN_STEP = _SCAN_MAX / _SCAN_CELLS  # a binary fraction: every grid point k * step is exact


def entropy(p: float) -> float:
    """Binary entropy H(p) = -p log2 p - (1-p) log2 (1-p) in bits.

    Uses the convention 0 * log2(0) = 0, so H(0) = H(1) = 0.

    Raises:
        DomainError: if p lies outside [0, 1].
    """
    try:
        if not 0.0 <= p <= 1.0:
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}") from None
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binomial_exact(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) as an arbitrary-precision integer.

    Raises:
        DomainError: if n or k is not a non-negative integer, or k > n.
    """
    check_sizes(n=n, k=k)
    if k > n:
        raise DomainError(f"binomial_exact requires 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def check_sizes(*, at_least: int | None = 0, **sizes) -> None:
    """Raise DomainError unless every named size is an integer >= at_least.

    A size is an Integral other than bool: 3.0, NaN, inf and True are not
    sizes.  at_least=None admits any integer, for indices where a negative
    value lies outside the support and counts zero.  Each name is checked
    in turn, the integer test before the floor.
    """
    for name, value in sizes.items():
        # a plain int skips the abstract Integral test, about 1 microsecond each
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if at_least is not None and value < at_least:
            raise DomainError(f"{name} must be >= {at_least}, got {value}")


def _finite_float(value, what: str) -> float:
    """float(value); DomainError unless value is a real number with a finite float."""
    try:
        if math.isfinite(x := float(value)):
            return x
    except (TypeError, ValueError, OverflowError):  # not a real number, or too large
        pass
    raise DomainError(f"{what} must be finite real numbers, got {value!r}")


def _check_table_cells(shape: tuple[int, ...]) -> None:
    """MemoryBudgetError if a table of this shape has more than TABLE_CELL_BUDGET cells."""
    cells = math.prod(shape)
    if cells > TABLE_CELL_BUDGET:
        raise MemoryBudgetError(
            f"pair table needs {cells} cells per layer, budget is {TABLE_CELL_BUDGET}"
        )


@dataclass(frozen=True)
class CountMode:
    """How a pair-count table stores counts: "exact" keeps Python integers
    in an object array and adds them with numpy.add; "log2" keeps float64
    log2 counts, -inf for zero, and adds them with numpy.logaddexp2.  add is
    a plain attribute, so a DP kernel reads it once per table.

    Both pair-count builders build a table in the mode _accumulator()
    gives for a bound on its counts and hand the result to that mode's
    _finish(): the synthesis DP sums with add, and the sticky builder
    writes exact products through _encode.  For a log2 table whose counts
    are at most 2^1000 this is a private "linear" mode, float64 counts
    with 0 for zero and numpy.add, which rounds once per sum where
    logaddexp2 rounds through exp2 and log2; _finish takes log2 in place.
    count_mode() never returns the linear mode.
    """

    name: str
    zero: object
    one: object
    dtype: type
    add: np.ufunc

    def blank(self, shape: tuple[int, ...]) -> np.ndarray:
        """A table of zero counts; MemoryBudgetError above TABLE_CELL_BUDGET cells."""
        _check_table_cells(shape)
        import numpy as np

        return np.full(shape, self.zero, dtype=self.dtype)

    def sum(self, values: np.ndarray):
        """Sum of table entries; log2 counts are summed relative to the largest."""
        if self.name == "exact":
            return sum(values.reshape(-1).tolist())
        import numpy as np

        finite = values[values > NEG_INF]
        if finite.size == 0:
            return NEG_INF
        m = float(finite.max())
        return m + math.log2(np.exp2(finite - m).sum())

    def _accumulator(self, log2_bound: int) -> CountMode:
        """The mode a DP kernel sums in when no count it holds exceeds 2^log2_bound.

        The linear mode for a log2 table with log2_bound <= 1000, and this
        mode itself otherwise.  A table above the bound keeps logaddexp2:
        rescaling the linear counts per step instead would underflow the
        count-1 cells below the smallest float64, 2^-1074.
        """
        if self.name == "log2" and log2_bound <= _LINEAR_LOG2_BITS:
            return _modes()["linear"]
        return self

    def _encode(self, counts: np.ndarray):
        """Nonzero exact counts (an object array) as values to write into a table of this mode.

        A log2 table takes math.log2 of each; exact and linear tables take them
        as they are, and a float64 one rounds each on assignment (OverflowError past 2^1024).
        """
        if self.name == "log2":
            return [math.log2(count) for count in counts.tolist()]
        return counts

    def _finish(self, table: np.ndarray) -> np.ndarray:
        """A table built in this mode, in the public mode it stands for.

        Linear counts become log2 counts in place, 0 becoming -inf; a table
        of a public mode is returned as it is.
        """
        if self.name != "linear":
            return table
        import numpy as np

        with np.errstate(divide="ignore"):
            return np.log2(table, out=table)


@cache
def _modes() -> dict[str, CountMode]:
    """The count modes by name: the public "exact" and "log2", and the private "linear"."""
    import numpy as np

    return {
        "exact": CountMode("exact", 0, 1, object, np.add),
        "log2": CountMode("log2", NEG_INF, 0.0, np.float64, np.logaddexp2),
        "linear": CountMode("linear", 0.0, 1.0, np.float64, np.add),
    }


def _check_mode(mode: str) -> None:
    """DomainError unless mode is "exact" or "log2"; loads no numpy."""
    if mode not in ("exact", "log2"):
        raise DomainError(f"mode must be 'exact' or 'log2', got {mode!r}")


def count_mode(mode: str) -> CountMode:
    """The count mode named "exact" or "log2"; DomainError for any other name."""
    _check_mode(mode)
    return _modes()[mode]


@dataclass(frozen=True)
class BracketedRoot:
    """A root of a scalar function together with its final bracket.

    Attributes:
        root: the located root.
        residual: function value at the root.
        bracket: (lo, hi) interval containing the root.
    """

    root: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial with coefficients stored constant term first.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero unless the polynomial is identically zero.

    Raises:
        DomainError: for a coefficient that is not a finite real number.
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Sequence[float]):
        coeffs = [_finite_float(c, "polynomial coefficients") for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0.0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def evaluate(self, x: float) -> float:
        """Evaluate the polynomial at x by Horner's rule."""
        value = 0.0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def evaluate_many(self, xs: Iterable[float]) -> list[float]:
        """Values at each of xs, in order, as evaluate gives them.

        The root scan probes its grid points through this method, one
        point per call, so that one wrapper around it can count the probes.
        """
        return [self.evaluate(x) for x in xs]


def find_root_bisection(f: Callable[[float], float], lo: float, hi: float) -> BracketedRoot:
    """Bisect a sign-changing bracket [lo, hi] down to a root of f.

    The returned root satisfies both |f(root)| <= 1e-12 and bracket width
    <= 1e-12 (the bracket may collapse to adjacent floats first when f is
    steep; the residual condition still decides success).

    Raises:
        DomainError: unless lo < hi and both are finite.
        NoSignChangeError: if f(lo) and f(hi) have the same sign.
        NonConvergenceError: if the tolerance is unreachable in the
            iteration budget.
    """
    try:
        if not -math.inf < lo < hi < math.inf:
            raise TypeError
    except TypeError:  # out of order or not finite, or not real numbers
        raise DomainError(
            f"bracket endpoints must be finite with lo < hi, got [{lo}, {hi}]"
        ) from None
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return BracketedRoot(root=lo, residual=0.0, bracket=(lo, hi))
    if f_hi == 0.0:
        return BracketedRoot(root=hi, residual=0.0, bracket=(lo, hi))
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"f({lo}) = {f_lo} and f({hi}) = {f_hi} have the same sign"
        )
    best_x, best_f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    for _ in range(_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if abs(f_mid) < abs(best_f):
            best_x, best_f = mid, f_mid
        if f_mid == 0.0:
            return BracketedRoot(root=mid, residual=0.0, bracket=(lo, hi))
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        if hi - lo <= _ROOT_TOL and abs(best_f) <= _ROOT_TOL:
            return BracketedRoot(root=best_x, residual=best_f, bracket=(lo, hi))
    if abs(best_f) <= _ROOT_TOL:
        return BracketedRoot(root=best_x, residual=best_f, bracket=(lo, hi))
    raise NonConvergenceError(
        f"bisection stalled at bracket [{lo}, {hi}] with residual {best_f}"
    )


def smallest_positive_root(p: RealPolynomial) -> BracketedRoot:
    """Smallest positive real root of p on (0, 10].

    Looks for the first cell of the uniform grid k * 10 / 1024,
    k = 1 .. 1024, whose end values change sign or touch zero, and
    bisects it; a root on a grid point comes back as a bisection
    endpoint.  Roots that share a cell without a sign change (a double
    root, or two roots closer than the step) are not resolved.

    When p(0) != 0 and the nonzero coefficients change sign once,
    Descartes' rule of signs gives p exactly one positive root, and the
    grid values as Horner's rule rounds them change sign once too.  Take
    p(0) > 0.  Each Horner step multiplies by x and adds a coefficient,
    and rounding is monotone, so a partial sum that is negative at x is
    negative and no larger at every y > x; a zero value of p is an exact
    cancellation of the constant term, and p stays <= 0 after it.  No
    value is a NaN: each step adds a coefficient, finite as RealPolynomial
    requires, to a product with a positive finite x.  (With p(0) = 0 the
    last steps only multiply by x, and a small positive value can
    underflow to zero mid-grid.)  So when p at the first grid point
    also has the sign of p(0), a binary search over the grid index finds
    the first grid point without that sign in 11 evaluations.  Any other p
    is walked point by point from the left to its first sign change, and
    a sign change before the first grid point is bracketed by halving
    towards 0.  Both routes bisect the same cell.  Each grid probe is one
    evaluate_many call.

    Raises:
        NoRootFoundError: if no grid cell shows a sign change.
        DomainError: for a zero polynomial.
    """
    if p.is_zero():
        raise DomainError("smallest_positive_root requires a nonzero polynomial")
    signs = [math.copysign(1.0, c) for c in p.coefficients if c != 0.0]
    # sign of p just right of 0: the sign of its lowest nonzero coefficient
    sign_left = signs[0]

    def sign(k: int) -> float:
        """Sign of p at grid point k: -1.0 or 1.0, and the value itself for a zero."""
        (value,) = p.evaluate_many((k * _SCAN_STEP,))
        return 1.0 if value > 0.0 else -1.0 if value < 0.0 else value

    sign_lo = sign(1)
    one_sign_change = sum(a != b for a, b in zip(signs, signs[1:])) == 1
    if sign_lo == sign_left and p.coefficients[0] != 0.0 and one_sign_change:
        # the first grid index whose sign is not that of p(0); 1025 past the grid
        grid = range(2, _SCAN_CELLS + 1)
        k = grid[0] + bisect.bisect_left(grid, True, key=lambda k: sign(k) != sign_left)
    else:
        if sign_lo != 0.0 and sign_lo != sign_left:
            # a root hides between 0 and the first grid point
            lo_edge = _SCAN_STEP
            for _ in range(80):
                lo_edge *= 0.5
                if math.copysign(1.0, p.evaluate(lo_edge)) == sign_left:
                    return find_root_bisection(p.evaluate, lo_edge, _SCAN_STEP)
        for k in range(2, _SCAN_CELLS + 1):
            sign_hi = sign(k)
            if sign_lo * sign_hi <= 0.0:
                break
            sign_lo = sign_hi
        else:
            k = _SCAN_CELLS + 1
    if k > _SCAN_CELLS:
        raise NoRootFoundError(
            f"no sign change of the polynomial found on (0, {_SCAN_MAX}] "
            f"at grid step {_SCAN_STEP:.3e}"
        )
    return find_root_bisection(p.evaluate, (k - 1) * _SCAN_STEP, k * _SCAN_STEP)
