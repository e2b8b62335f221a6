"""Rate bounds for binary codes over the sticky-insertion channel.

A sticky insertion duplicates a transmitted bit in place, so it preserves
the run structure of a binary word: a word with r runs stays a word with
r runs, only the run lengths grow.  Words are therefore modelled by their
run-length vectors, the compositions of n into r positive parts, and two
words are confusable under b insertions per word exactly when the L1
distance of their run-length vectors is at most 2b.

This module provides the exact pair-counting machinery (dynamic program
plus enumeration oracle), the closed-form critical point of the pair
generating function, the asymptotic total-ball rate, the smooth-point
leading term of the exact pair counts (their asymptotic value with the
polynomial factor and constant, which ties the counts to the rates at
finite n), and the resulting Gilbert-Varshamov, sphere-packing, and
crude lower bounds on code rate, all in bits per symbol.  Asymptotic
parameters are densities: rho = r/n runs per symbol and beta = b/n
insertions per symbol, with L1 radius density delta = 2*beta.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import TYPE_CHECKING, Iterator, Sequence

from . import acsv
from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .numeric import NEG_INF, CountMode, binomial_exact, check_sizes, count_mode, entropy

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Composition",
    "StickyPoint",
    "PairCountTable",
    "compositions",
    "l1_distance",
    "is_confusable",
    "confusable_bruteforce",
    "pair_count_table",
    "iter_pair_layers",
    "count_pairs_exact",
    "count_pairs_bruteforce",
    "pair_generating_numerator",
    "pair_generating_denominator",
    "critical_point_closed_form",
    "leading_pair_count_log2",
    "ball_rate",
    "beta_max",
    "gv_rate",
    "sp_rate",
    "simple_lb_rate",
    "evaluate_point",
]

_BRUTEFORCE_PAIR_LIMIT = 10 ** 7
_CONFUSABLE_ENUM_LIMIT = 10 ** 6
_LB_BOUNDARY = 0.25  # insertion density from which the crude bound is zero
_CANCELLATION_RATIO = 1e-4  # density ratio below which root - rho (or - delta) loses half its digits


@dataclass(frozen=True)
class Composition:
    """Run-length vector: positive integer parts summing to n."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        for part in parts:
            check_sizes(at_least=1, part=part)
        cleaned = tuple(int(p) for p in parts)
        if not cleaned:
            raise DomainError("a composition needs at least one part")
        object.__setattr__(self, "parts", cleaned)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)


def compositions(n: int, r: int) -> Iterator[Composition]:
    """All compositions of n into exactly r positive parts, in lexicographic order.

    A composition is the r - 1 points at which it cuts 1..n-1; the cut sets
    come in lexicographic order, and so do the parts.
    """
    check_sizes(n=n, r=r)
    if not n >= r >= 1:
        return iter(())
    return (
        Composition([b - a for a, b in zip((0, *cuts), (*cuts, n))])
        for cuts in combinations(range(1, n), r - 1)
    )


def l1_distance(u: Composition, v: Composition) -> int:
    """Sum of coordinate-wise absolute differences of run lengths."""
    if u.r != v.r:
        raise DimensionMismatchError(
            f"compositions have different lengths {u.r} and {v.r}"
        )
    return sum(abs(a - b) for a, b in zip(u.parts, v.parts))


def _check_pair(u: Composition, v: Composition, b: int) -> None:
    if u.n != v.n or u.r != v.r:
        raise DimensionMismatchError(
            f"shape mismatch: ({u.n},{u.r}) vs ({v.n},{v.r})"
        )
    check_sizes(b=b)


def is_confusable(u: Composition, v: Composition, b: int) -> bool:
    """Whether b insertions per word can map u and v to a common word."""
    _check_pair(u, v, b)
    return l1_distance(u, v) <= 2 * b

def _inflations(w: Composition, b: int) -> set[tuple[int, ...]]:
    """All run-length vectors reachable from w by exactly b insertions."""
    return {
        tuple(p + runs.count(i) for i, p in enumerate(w.parts))
        for runs in combinations_with_replacement(range(w.r), b)
    }


def confusable_bruteforce(u: Composition, v: Composition, b: int) -> bool:
    """Confusability by direct enumeration of all b-fold inflations.

    Distributes b unit run-length increments over u and over v in every
    possible way and reports whether the two reachable sets intersect.
    Serves as the oracle for the L1 criterion of is_confusable.
    """
    _check_pair(u, v, b)
    if binomial_exact(b + u.r - 1, u.r - 1) > _CONFUSABLE_ENUM_LIMIT:
        raise SizeLimitError(
            f"enumerating {b} insertions over {u.r} runs is too large"
        )
    return not _inflations(u, b).isdisjoint(_inflations(v, b))


@dataclass(frozen=True)
class PairCountTable:
    """One level of the pair-count dynamic program.

    entries[n1, n2, s] is the number of ordered composition pairs
    (u, v) with u summing to n1, v summing to n2, both with exactly
    `r` parts, at L1 distance exactly s, stored in the count mode `mode`.
    A negative index lies outside the support and counts zero; an index
    beyond the dims lies outside this truncated table and raises DomainError.
    """

    mode: CountMode
    r: int
    entries: np.ndarray

    def _inside(self, n1: int, n2: int, s: int) -> bool:
        """Whether (n1, n2, s) is stored; False below zero, DomainError beyond the dims."""
        check_sizes(at_least=None, n1=n1, n2=n2, s=s)
        if min(n1, n2, s) < 0:
            return False
        n1_max, n2_max, s_max = (dim - 1 for dim in self.entries.shape)
        if n1 > n1_max or n2 > n2_max or s > s_max:
            raise DomainError(
                f"({n1},{n2},{s}) outside table dims ({n1_max},{n2_max},{s_max})"
            )
        return True

    def count(self, n1: int, n2: int, s: int):
        """Table entry at (n1, n2, s)."""
        return self.entries[n1, n2, s] if self._inside(n1, n2, s) else self.mode.zero

    def total(self, n1: int, n2: int, s_cap: int):
        """Sum of entries over s <= s_cap at fixed (n1, n2)."""
        if not self._inside(n1, n2, s_cap):
            return self.mode.zero
        return self.mode.sum(self.entries[n1, n2, : s_cap + 1])


def iter_pair_layers(
    n1_max: int, n2_max: int, r_max: int, s_max: int, mode: str = "exact"
) -> Iterator[PairCountTable]:
    """Yield the pair-count table for each r = 1 .. r_max in turn.

    The recursion truncates the last run of each word.  Writing N for
    the level r-1 table, the level r value at (n1, n2, s) is the sum of
    N(n1-a, n2-b, s-|a-b|) over all last-run lengths a, b >= 1.  The
    unbounded sums collapse with two run-shortening prefix tables

        M1(n1, n2, s) = sum_{j>=1} N(n1, n2-j, s-j)
        M2(n1, n2, s) = sum_{j>=1} N(n1-j, n2, s-j)

    and a diagonal prefix A of P = N + M1 + M2, giving O(1) work per
    state; the level r table is exactly A.  Only two levels are live at
    any time, P is summed in place of M2, and M1 and P are freed as soon
    as they are read, so memory stays at a handful of (n1, n2, s) slabs.
    On a square table (n1_max == n2_max) N is symmetric in n1 and n2, so
    M2 is M1 with those axes swapped and is copied rather than summed.

    Every step reads only the band where level r-1 can be nonzero: a
    pair of compositions with r-1 parts has n1, n2 >= r-1 and L1
    distance s <= n1 + n2 - 2(r-1), since |a - b| <= a + b - 2 for
    parts a, b >= 1.  So the prefix loops start at n1 or n2 = r-1, the
    n1 and n2 axes are sliced from r-1, and the s axis stops at
    n1_max + n2_max - 2(r-1); M1, M2 and P share that band.  Cells
    outside it are zero in every slab, and adding a zero leaves a count
    unchanged.

    Every slab stays below 3 * 2^(n1_max + n2_max), so a log2 table
    with n1_max + n2_max + 2 <= 1000 sums linear float64 counts (see
    CountMode._accumulator) and each layer is converted to log2 as it
    is yielded; a larger one sums with logaddexp2.  Exact tables hold
    the exact counts, and log2 tables match log2 of them within about
    1e-13.
    """
    check_sizes(n1_max=n1_max, n2_max=n2_max, r_max=r_max, s_max=s_max)
    cm = count_mode(mode)
    acc = cm._accumulator(n1_max + n2_max + 2)
    for r, level in enumerate(_levels(n1_max, n2_max, r_max, s_max, acc), start=1):
        entries = level if acc is cm else acc._finish(level.copy())
        yield PairCountTable(mode=cm, r=r, entries=entries)


def _levels(
    n1_max: int, n2_max: int, r_max: int, s_max: int, acc: CountMode
) -> Iterator[np.ndarray]:
    """The level r = 1 .. r_max entries of iter_pair_layers, summed in mode acc.

    Each level is read again to build the next one, so a caller that
    converts it must convert a copy.
    """
    level = acc.blank((n1_max + 1, n2_max + 1, s_max + 1))
    level[0, 0, 0] = acc.one
    for r in range(1, r_max + 1):
        lo = r - 1
        hi = min(max(n1_max + n2_max - 2 * lo, 0), s_max)  # last s in the band
        m1 = acc.blank(level.shape)
        for n2 in range(lo + 1, n2_max + 1):
            acc.add(level[lo:, n2 - 1, :hi], m1[lo:, n2 - 1, :hi], out=m1[lo:, n2, 1 : hi + 1])
        if n1_max == n2_max:
            m2 = m1.transpose(1, 0, 2).copy()  # a copy: P is summed into it below
        else:
            m2 = acc.blank(level.shape)
            for n1 in range(lo + 1, n1_max + 1):
                acc.add(level[n1 - 1, lo:, :hi], m2[n1 - 1, lo:, :hi], out=m2[n1, lo:, 1 : hi + 1])
        band = (slice(lo, None), slice(lo, None), slice(hi + 1))
        p = m2  # P = N + M1 + M2 is summed in place; all three are zero outside the band
        acc.add(m1[band], p[band], out=p[band])
        del m1, m2  # free each slab once it is read: M1 here, P before the yield
        acc.add(level[band], p[band], out=p[band])
        nxt = acc.blank(level.shape)
        for n1 in range(lo + 1, n1_max + 1):
            acc.add(
                p[n1 - 1, lo:n2_max, : hi + 1],
                nxt[n1 - 1, lo:n2_max, : hi + 1],
                out=nxt[n1, lo + 1 :, : hi + 1],
            )
        level = nxt
        del p
        yield level


def pair_count_table(
    n1_max: int, n2_max: int, r: int, s_max: int, mode: str = "exact"
) -> PairCountTable:
    """Pair-count table at level r (see iter_pair_layers).

    A log2 table is converted from linear counts at level r only, not at
    every level on the way.
    """
    check_sizes(at_least=1, r=r)
    check_sizes(n1_max=n1_max, n2_max=n2_max, s_max=s_max)
    cm = count_mode(mode)
    acc = cm._accumulator(n1_max + n2_max + 2)
    for level in _levels(n1_max, n2_max, r, s_max, acc):
        pass
    return PairCountTable(mode=cm, r=r, entries=acc._finish(level))


def count_pairs_exact(n1: int, n2: int, r: int, s: int, mode: str = "exact"):
    """Number of ordered pairs in S(n1,r) x S(n2,r) at L1 distance s."""
    check_sizes(at_least=None, n1=n1, n2=n2, r=r, s=s)
    cm = count_mode(mode)
    if min(n1, n2, r, s) < 0 or s > n1 + n2 or r > min(n1, n2):
        return cm.zero  # outside the support, before any table is built
    if r == 0:
        return cm.one if n1 == n2 == s == 0 else cm.zero
    return pair_count_table(n1, n2, r, s, mode).count(n1, n2, s)


def count_pairs_bruteforce(n1: int, n2: int, r: int, s: int) -> int:
    """Pair count by direct enumeration of both composition sets.

    Each (n1, n2, r) is enumerated once: the first call builds the whole
    L1-distance histogram of S(n1,r) x S(n2,r) and caches it, and later
    calls read their bucket from it.
    """
    check_sizes(at_least=None, n1=n1, n2=n2, r=r, s=s)
    if min(n1, n2, r, s) < 0:
        return 0
    if r == 0:
        return 1 if n1 == 0 and n2 == 0 and s == 0 else 0
    if n1 < r or n2 < r:
        return 0
    size1 = binomial_exact(n1 - 1, r - 1)
    size2 = binomial_exact(n2 - 1, r - 1)
    if size1 * size2 > _BRUTEFORCE_PAIR_LIMIT:
        raise SizeLimitError(
            f"{size1 * size2} composition pairs exceed the enumeration limit"
        )
    return _bruteforce_histogram(n1, n2, r).get(s, 0)


@cache
def _bruteforce_histogram(n1: int, n2: int, r: int) -> Counter[int]:
    """Ordered pairs in S(n1,r) x S(n2,r) by L1 distance."""
    right = list(compositions(n2, r))
    return Counter(l1_distance(u, v) for u in compositions(n1, r) for v in right)


@cache
def pair_generating_numerator() -> acsv.SparseMultivariatePolynomial:
    """Numerator of the pair generating function in (x1, x2, y, z).

    Factored form: (1 - x1 x2)(1 - x1 z)(1 - x2 z).
    """
    return acsv.SparseMultivariatePolynomial(
        4,
        [
            ((0, 0, 0, 0), 1.0),
            ((1, 0, 0, 1), -1.0),
            ((0, 1, 0, 1), -1.0),
            ((1, 1, 0, 2), 1.0),
            ((1, 1, 0, 0), -1.0),
            ((2, 1, 0, 1), 1.0),
            ((1, 2, 0, 1), 1.0),
            ((2, 2, 0, 2), -1.0),
        ],
    )


@cache
def pair_generating_denominator() -> acsv.SparseMultivariatePolynomial:
    """Denominator of the pair generating function in (x1, x2, y, z).

    Factored form: (1 - x1 x2)(1 - x1 z)(1 - x2 z) - y x1 x2 (1 - x1 x2 z^2),
    the numerator minus y times the numerator of one run pair.
    """
    return acsv.SparseMultivariatePolynomial(
        4,
        pair_generating_numerator().terms
        + (((1, 1, 1, 0), -1.0), ((2, 2, 1, 2), 1.0)),
    )


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be in (0,1), got {rho}")


def critical_point_closed_form(rho: float, delta: float) -> acsv.CriticalPoint:
    """Closed-form critical point at run density rho and radius density delta.

    The point is (x, x, y, z) in direction (1, 1, rho, delta): the two
    word-length variables share the value x by symmetry, y marks the run
    count and z the L1 distance.  Valid in the smooth regime
    2 - delta - 2*rho > 0 with delta > 0; the saturated regime is handled
    by ball_rate directly.
    """
    _check_rho(rho)
    if not delta > 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    if not 2.0 - delta - 2.0 * rho > 0.0:
        raise DomainError(
            f"point exists only for 2 - delta - 2*rho > 0, got rho={rho}, delta={delta}"
        )
    x = math.sqrt(1.0 - 2.0 * rho / (2.0 - delta))
    root = math.sqrt(rho * rho + delta * delta)
    # conjugate forms of root - rho and root - delta where one density is tiny
    tiny = _CANCELLATION_RATIO
    z = (root - rho) / (x * delta) if delta >= tiny * rho else delta / (x * (root + rho))
    gap = root - delta if rho >= tiny * delta else rho * (rho / (root + delta))
    y = 2.0 * gap / (2.0 - delta - 2.0 * rho)
    return acsv.CriticalPoint.at(
        pair_generating_denominator(), (1.0, 1.0, rho, delta), (x, x, y, z)
    )


def leading_pair_count_log2(n: int, rho: float, delta: float) -> float:
    """log2 of the smooth-point leading term of count_pairs_exact(n, n, rho n, delta n).

    The exact count is 2^value (1 + O(1/n)).  Two minimal critical points
    contribute: (x, x, y, z) from critical_point_closed_form and
    (-x, -x, y, -z).  The map (x1, x2, z) -> (-x1, -x2, -z) leaves the
    generating function unchanged and multiplies the coefficient at
    (n, n, r, s) by (-1)^s, so the two terms double the one-point term
    when s = delta n is even and cancel when it is odd; the count is then
    0 and the value -inf.  Defined on the smooth branch of ball_rate only,
    0 < delta < 2 beta_max(rho).

    Raises:
        DomainError: off the smooth branch, or if n is not a positive
            integer with rho n and delta n integral (acsv.leading_term).
    """
    if not 0.0 < delta < math.inf or _ball_branch(rho, delta / 2.0) != "smooth":
        raise DomainError(
            f"leading term needs the smooth branch 0 < delta < 2 beta_max(rho), "
            f"got rho={rho}, delta={delta}"
        )
    cp = critical_point_closed_form(rho, delta)
    one_point = acsv.leading_term(
        pair_generating_denominator(), pair_generating_numerator(), cp.direction, cp.z, n
    )
    if round(n * delta) % 2:
        return NEG_INF
    return one_point + 1.0


def beta_max(rho: float) -> float:
    """Insertion density at which the total ball saturates."""
    _check_rho(rho)
    return (1.0 - rho) / (2.0 - rho)


def _ball_branch(rho: float, beta: float) -> str:
    """Piece of ball_rate that applies at (rho, beta)."""
    if beta == 0.0:
        return "diagonal"
    if beta >= beta_max(rho):
        return "saturated"
    return "smooth"


def _log2_square_over(a: float, b: float) -> float:
    """log2(a^2 / b) for a, b > 0, also where the quotient underflows to 0."""
    q = a * a / b
    return math.log2(q) if q > 0.0 else 2.0 * math.log2(a) - math.log2(b)


def ball_rate(rho: float, beta: float) -> float:
    """Asymptotic exponent of the total ball size at radius density 2*beta.

    Piecewise: the entropy H(rho) at beta = 0 (the ball degenerates to
    the diagonal), twice H(rho) once beta reaches beta_max(rho) (the
    ball covers all pairs), and the smooth closed form in between.
    """
    _check_rho(rho)
    if not 0.0 <= beta < math.inf:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    branch = _ball_branch(rho, beta)
    if branch == "diagonal":
        return entropy(rho)
    if branch == "saturated":
        return 2.0 * entropy(rho)
    root = math.hypot(rho, 2.0 * beta)
    # conjugate forms keep the differences root - 2 beta and root - rho
    # positive for extreme rho/beta ratios
    return (
        -rho
        + 2.0 * beta * math.log2(2.0 * beta)
        - rho * _log2_square_over(rho, root + 2.0 * beta)
        - 2.0 * beta * _log2_square_over(2.0 * beta, root + rho)
        + (-1.0 + rho + beta) * math.log2(2.0 - 2.0 * rho - 2.0 * beta)
        + (1.0 - beta) * math.log2(2.0 - 2.0 * beta)
    )


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 0.5:
        raise DomainError(f"beta must be in [0, 0.5], got {beta}")


def _gv_objective(rho: float, beta: float) -> float:
    return 2.0 * entropy(rho) - ball_rate(rho, beta)


def _gv_closed_form_rho(beta: float) -> float:
    return (3.0 * (1.0 - beta) - math.sqrt(9.0 * beta * beta - 2.0 * beta + 1.0)) / 4.0


def gv_rate(beta: float) -> tuple[float, float]:
    """Best Gilbert-Varshamov rate over the run density, with its argmax.

    Maximizes the objective 2*H(rho) - ball_rate(rho, beta) at the
    closed-form argmax rho = (3(1-beta) - sqrt(9 beta^2 - 2 beta + 1))/4;
    `gvbound verify sticky` checks it against a numeric argmax.  Returns
    (rate, rho_star), the rate floored at zero.
    """
    _check_beta(beta)
    if beta == 0.5:
        return 0.0, 0.0
    rho = _gv_closed_form_rho(beta)
    return max(_gv_objective(rho, beta), 0.0), rho


def sp_rate(beta: float) -> float:
    """Sphere-packing upper bound on the rate at insertion density beta."""
    _check_beta(beta)
    arg = (1.0 + beta) / (1.0 + 2.0 * beta)
    return (1.0 + 2.0 * beta) * (1.0 - entropy(arg))


def simple_lb_rate(beta: float) -> float:
    """Crude lower bound from the coarse ball estimate 2^r * C(d+r-1, r-1).

    The closed form is the bound optimized at run density (1 - 4*beta)/3;
    that density leaves the valid range at beta = 1/4, where the formula
    value reaches zero, so the bound is zero from there on.
    """
    _check_beta(beta)
    if beta == 0.0:
        return math.log2(3.0) - 1.0
    if beta >= _LB_BOUNDARY:
        return 0.0
    return (
        2.0 * beta
        - 1.0
        - (1.0 + 2.0 * beta) * math.log2((1.0 + 2.0 * beta) / 3.0)
        + 2.0 * beta * math.log2(beta)
    )


@dataclass(frozen=True)
class StickyPoint:
    """One sticky-channel evaluation: every printed value, branch and flag.

    The bounds depend on beta alone; capacity is H(rho), or its maximum 1
    without a rho.  The ball fields are set only with a rho: branch is the
    piece of ball_rate taken (diagonal, smooth or saturated), and
    critical_point is set on the smooth piece.  gv_saturated (the GV rate
    is 0 at beta > 0) and saturated (the ball covers all pairs at this
    rho) are distinct facts; lb_boundary marks beta >= 1/4.
    """

    beta: float
    capacity: float
    gv_rate: float
    gv_rho_star: float
    sp_rate: float
    lb_rate: float
    gv_saturated: bool
    lb_boundary: bool
    rho: float | None = None
    branch: str | None = None
    ball_rate: float | None = None
    critical_point: acsv.CriticalPoint | None = None
    saturated: bool = False


def evaluate_point(beta: float, rho: float | None = None) -> StickyPoint:
    """Evaluate every bound at insertion density beta, and the ball at rho."""
    gv, rho_star = gv_rate(beta)
    point = StickyPoint(
        beta=beta, capacity=1.0, gv_rate=gv, gv_rho_star=rho_star,
        sp_rate=sp_rate(beta), lb_rate=simple_lb_rate(beta),
        gv_saturated=gv == 0.0 and beta > 0.0, lb_boundary=beta >= _LB_BOUNDARY,
    )
    if rho is None:
        return point
    ball = ball_rate(rho, beta)  # checks rho before entropy does
    branch = _ball_branch(rho, beta)
    cp = critical_point_closed_form(rho, 2.0 * beta) if branch == "smooth" else None
    return replace(
        point, capacity=entropy(rho), rho=rho, branch=branch, ball_rate=ball,
        critical_point=cp, saturated=branch == "saturated",
    )
