"""Shared numeric primitives: entropy, count modes, the smallest-positive-root scan.

Probabilities and densities are plain floats, converted and range-checked
at the boundary by _real; counts are arbitrary-precision Python integers, or
their log2 in the "log2" count mode of the pair-count tables (CountMode).
All logarithms are base 2, so every rate in the package is measured in
bits per symbol.

Everything here runs on Python floats but the tables of a count mode.
numpy is imported on the first blank() or sum() of a mode, which only the
pair-count tables make, so the closed forms and the sticky
count_pairs_exact never load it.
"""

from __future__ import annotations

import bisect
import math
import sys
from numbers import Integral
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatchError, DomainError, MemoryBudgetError, NoRootFoundError, NonConvergenceError,
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
    "check_sizes",
    "count_mode",
    "smallest_positive_root",
]

NEG_INF = float("-inf")
TABLE_CELL_BUDGET = 1 << 26
_FLOAT_MAX = sys.float_info.max  # an int past it has no float64 value
# an open end of a density range as the closed bound _real takes: x >= _ABOVE_0 is x > 0
_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)

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
    if not (type(p) is float and 0.0 <= p <= 1.0):  # a float in range needs no _real
        p = _real(p, "entropy argument must lie in [0, 1]", 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


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
            raise DomainError(f"{name} must be an integer, got {_shown(value)}")
        if at_least is not None and value < at_least:
            raise DomainError(f"{name} must be >= {at_least}, got {_shown(value)}")


def _real(value, what: str, lo: float = -_FLOAT_MAX, hi: float = _FLOAT_MAX) -> float:
    """value as a float in [lo, hi]; DomainError(f"{what}, got ...") for any other value.

    An int, Fraction, Decimal or numpy scalar is computed as its float.  A
    str or bytes, which float() would parse, defines no __float__; complex
    numbers and arrays fail to convert; NaN, infinities and values past
    float64 fall outside [lo, hi].  An open end is passed as the adjacent
    float, such as _ABOVE_0.
    """
    x = value
    if type(x) is not float:  # a float, the common case, needs no conversion
        try:
            x = float(value) if hasattr(value, "__float__") else math.nan
        except (TypeError, ValueError, ArithmeticError):  # complex, array; past float64, sNaN
            x = math.nan
    if lo <= x <= hi:
        return x
    raise DomainError(f"{what}, got {_shown(value)}")


def _items(values, what: str, length: int | None = None) -> list:
    """values as a list; DimensionMismatchError for a scalar or a list of another length."""
    try:
        items = list(values)
    except TypeError:  # a scalar
        items = None
    if items is None or length is not None and len(items) != length:
        raise DimensionMismatchError(f"{what}, got {_shown(values)}")
    return items


def _shown(value) -> str:
    """A rejected value as a message shows it: repr capped at 80 characters, and an
    int past 64 bits by its bit length, since Python prints no int past 4300 digits."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"
    try:
        text = repr(value)
    except ValueError:  # a huge int inside a container or a Fraction
        text = f"<{type(value).__name__}>"
    return text if len(text) <= 80 else text[:77] + "..."


def _check_table_cells(shape: Sequence[int]) -> None:
    """MemoryBudgetError if a table of this shape has more than TABLE_CELL_BUDGET cells."""
    cells = math.prod(shape)
    if cells > TABLE_CELL_BUDGET:
        raise MemoryBudgetError(
            f"pair table needs {_shown(cells)} cells per layer, budget is {TABLE_CELL_BUDGET}"
        )


class CountMode(NamedTuple):
    """How a pair-count table stores counts: "exact" keeps Python integers
    in an object array, and "log2" keeps float64 log2 counts, -inf for zero.
    zero is the count 0 in the mode.  A builder forms or sums its counts in
    its own way and hands them over in one of these two forms.
    """

    name: str
    zero: object

    def blank(self, shape: tuple[int, ...]) -> np.ndarray:
        """A table of zero counts.

        Every dimension is a size (check_sizes) and the table has at most
        TABLE_CELL_BUDGET cells (MemoryBudgetError), both checked before
        numpy allocates.  An exact table is filled with the int 0 in one
        pass, where numpy.full would fill it with None first.
        """
        sizes = _items(shape, "a table shape must be a sequence of sizes")
        check_sizes(**{f"table dimension {axis}": size for axis, size in enumerate(sizes)})
        _check_table_cells(sizes)
        import numpy as np

        if self.name == "exact":
            return np.zeros(sizes, dtype=object)
        return np.full(sizes, self.zero)

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


_MODES = {"exact": CountMode("exact", 0), "log2": CountMode("log2", NEG_INF)}


def count_mode(mode: str) -> CountMode:
    """The count mode named "exact" or "log2"; DomainError for any other name."""
    if mode not in ("exact", "log2"):
        raise DomainError(f"mode must be 'exact' or 'log2', got {_shown(mode)}")
    return _MODES[mode]


def _checked_make(cls, fields: Iterable):
    """A record from its fields through cls(*fields), so _replace runs the checks
    of a record's __new__ too; a checked record sets _make = classmethod(_checked_make)."""
    return cls(*fields)


class BracketedRoot(NamedTuple):
    """A root of a scalar function together with its final bracket.

    Attributes:
        root: the located root.
        residual: function value at the root.
        bracket: (lo, hi) interval containing the root.
    """

    root: float
    residual: float
    bracket: tuple[float, float]


class _PolynomialFields(NamedTuple):
    coefficients: tuple[float, ...]


class RealPolynomial(_PolynomialFields):
    """Real polynomial with coefficients stored constant term first.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero unless the polynomial is identically zero.

    Raises:
        DomainError: for a coefficient that is not a finite real number.
        DimensionMismatchError: for coefficients that are not a sequence.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, coefficients: Sequence[float]):
        what = "polynomial coefficients must be finite real numbers"
        coeffs = [_real(c, what) for c in _items(coefficients, "coefficients must be a sequence")]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0.0]
        return super().__new__(cls, tuple(coeffs))

    def is_zero(self) -> bool:
        return self.coefficients == (0.0,)

    def evaluate(self, x: float) -> float:
        """The value at x by Horner's rule; DomainError unless x and the value are finite."""
        value = self._horner(_real(x, "a polynomial is evaluated at finite real numbers"))
        if not math.isfinite(value):
            raise DomainError(f"the polynomial overflows float64 at x = {_shown(x)}")
        return value

    def evaluate_many(self, xs: Iterable[float]) -> list[float]:
        """Horner values at each of xs, in order; DomainError unless each x is finite and real.

        A value that overflows comes back as +-inf, unlike evaluate: the
        root scan reads it as a sign.  The scan probes its grid points
        through this method, one point per call, so that one wrapper
        around it can count the probes.
        """
        what = "a polynomial is evaluated at finite real numbers"
        return [self._horner(_real(x, what)) for x in _items(xs, "xs must be a sequence of points")]

    def _horner(self, x: float) -> float:
        """The value at a float x, unchecked: the root scan's probes and bisection."""
        value = 0.0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value


def _bisect(p: RealPolynomial, lo: float, hi: float) -> BracketedRoot:
    """Bisect the scan cell [lo, hi] down to a root of p.

    The returned root satisfies both |p(root)| <= 1e-12 and bracket width
    <= 1e-12 (the bracket may collapse to adjacent floats first when p is
    steep; the residual condition still decides success).  The end values
    change sign or touch zero on each of the scan's three routes, and no
    value is a NaN (see smallest_positive_root):
      - the Descartes search: p(lo) has the sign of p(0), p(hi) has not;
      - the walk: the first grid cell whose end signs multiply to <= 0;
      - the halving: p(lo) has the sign of p(0+), p(hi) the other sign.

    Raises:
        NonConvergenceError: if the tolerance is unreachable in the
            iteration budget.
    """
    f = p._horner
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return BracketedRoot(root=lo, residual=0.0, bracket=(lo, hi))
    if f_hi == 0.0:
        return BracketedRoot(root=hi, residual=0.0, bracket=(lo, hi))
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
    # the last pass left a bracket narrower than _ROOT_TOL, so |best_f| > _ROOT_TOL here
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
    towards 0 until p has its sign at 0+, down to the smallest float if
    need be.  Both routes bisect the same cell.  Each grid probe is one
    evaluate_many call.

    Raises:
        NoRootFoundError: if no grid cell shows a sign change, or no
            halving edge shows the sign of p at 0+.
        DomainError: for a zero polynomial, or a p that is not a RealPolynomial.
    """
    if not isinstance(p, RealPolynomial):
        raise DomainError(f"p must be a RealPolynomial, got {_shown(p)}")
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
            # a root hides between 0 and the first grid point, left of any the walk finds
            lo_edge = 0.5 * _SCAN_STEP
            while lo_edge > 0.0:
                if math.copysign(1.0, p._horner(lo_edge)) == sign_left:
                    return _bisect(p, lo_edge, _SCAN_STEP)
                lo_edge *= 0.5
            raise NoRootFoundError(
                f"no point of (0, {_SCAN_STEP:.3e}] shows the sign of the polynomial at 0+"
            )
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
    return _bisect(p, (k - 1) * _SCAN_STEP, k * _SCAN_STEP)
