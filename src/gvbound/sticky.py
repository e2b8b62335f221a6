"""Rate bounds for binary codes over the sticky-insertion channel.

A sticky insertion duplicates a transmitted bit in place, so it preserves
the run structure of a binary word: a word with r runs stays a word with
r runs, only the run lengths grow.  Words are therefore modelled by their
run-length vectors, the compositions of n into r positive parts, and two
words are confusable under b insertions per word exactly when the L1
distance of their run-length vectors is at most 2b.

This module provides the exact pair counts (a closed form in binomials,
plus an enumeration oracle), the closed-form critical point of the pair
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
from .numeric import (
    NEG_INF, CountMode, _check_mode, _check_table_cells, binomial_exact, check_sizes, count_mode,
    entropy,
)

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
    """One level r of the pair-count tables.

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

    Every count factors in closed form (see count_pairs_exact): with
    M = (n1 + n2 - s)/2, P = (s + n1 - n2)/2 and Q = (s - n1 + n2)/2,
    N(n1, n2, r, s) = C(M - 1, r - 1) D_r(P, Q), where D_r(P, Q) counts
    the differences u - v of r entries whose positive entries sum to P
    and negative entries to -Q.  Their generating function is
    ((1 - ab) / ((1 - a)(1 - b)))^r, so D_r follows from D_(r-1) by one
    shift-subtract and two cumulative sums on the (P, Q) plane, with
    P <= min(n1_max, s_max) and Q <= min(n2_max, s_max).

    Each table is allocated before it is written, so one over the cell
    budget fails before any product.  It is then filled one M plane at a
    time: C(M - 1, r - 1) D_r[P, Q] goes to (M + P, M + Q, P + Q), on
    the support cells only (M >= r and D_r[P, Q] > 0); every other entry
    is the mode's zero.  Exact tables hold the exact counts.  Every count
    stays below 3 * 2^(n1_max + n2_max), the bound a table takes its
    accumulator mode from (see CountMode._accumulator), and a log2 table
    is log2 of the exact one: numpy.log2 of the float64 counts while
    n1_max + n2_max <= 998, math.log2 of each exact count above.
    """
    return _tables(n1_max, n2_max, 1, r_max, s_max, mode)


def _tables(
    n1_max: int, n2_max: int, r_first: int, r_max: int, s_max: int, mode: str
) -> Iterator[PairCountTable]:
    """The tables r = r_first .. r_max of iter_pair_layers; the sizes are checked on the first next."""
    check_sizes(n1_max=n1_max, n2_max=n2_max, r_max=r_max, s_max=s_max)
    cm = count_mode(mode)
    import numpy as np

    acc = cm._accumulator(n1_max + n2_max + 2)
    shape = (n1_max + 1, n2_max + 1, s_max + 1)
    m_top = min(n1_max, n2_max)
    d = count_mode("exact").blank((min(n1_max, s_max) + 1, min(n2_max, s_max) + 1))  # D_r[P, Q]
    d[0, 0] = 1
    fits = np.add.outer(np.arange(d.shape[0]), np.arange(d.shape[1])) <= s_max
    for r in range(1, r_max + 1):
        if r <= m_top:  # times (1 - ab) / ((1 - a)(1 - b))
            d[1:, 1:] = d[1:, 1:] - d[:-1, :-1]
            np.add.accumulate(d, axis=0, out=d)
            np.add.accumulate(d, axis=1, out=d)
        if r < r_first:
            continue
        entries = acc.blank(shape)
        support = fits & (d != 0)
        for m in range(r, m_top + 1):
            p, q = np.nonzero(support[: n1_max - m + 1, : n2_max - m + 1])
            entries[m + p, m + q, p + q] = acc._encode(d[p, q] * math.comb(m - 1, r - 1))
        yield PairCountTable(mode=cm, r=r, entries=acc._finish(entries))


def pair_count_table(
    n1_max: int, n2_max: int, r: int, s_max: int, mode: str = "exact"
) -> PairCountTable:
    """Pair-count table at level r (see iter_pair_layers).

    Only D_r is advanced through the levels below r; only the level r
    table is written.
    """
    check_sizes(at_least=1, r=r)
    return next(_tables(n1_max, n2_max, r, r, s_max, mode))


def _compositions_count(n: int, parts: int) -> int:
    """Compositions of n >= 0 into `parts` positive parts: C(n - 1, parts - 1), [n = 0] for none."""
    return math.comb(n - 1, parts - 1) if n and parts else int(n == parts)


def count_pairs_exact(n1: int, n2: int, r: int, s: int, mode: str = "exact"):
    """Number of ordered pairs in S(n1,r) x S(n2,r) at L1 distance s.

    A pair (u, v) splits into m = min(u, v), coordinatewise, and
    d = u - v.  m is any composition of M = (n1 + n2 - s)/2 into r parts;
    the positive entries of d sum to P = (s + n1 - n2)/2, and its
    negative entries to -Q with Q = (s - n1 + n2)/2.  The split is a
    bijection, so the count is

        C(M - 1, r - 1) * sum_k C(r, k) comp(P, k) weak(Q, r - k),

    with k positive entries, comp(P, k) the compositions of P into k
    parts and weak(Q, j) = comp(Q + j, j) the weak compositions of Q
    into j parts; it is 0 for an odd s + n1 - n2, P < 0, Q < 0 or M < r
    (Flajolet & Sedgewick, Analytic Combinatorics, ch. I).  The sum is
    exact in Python integers; in log2 mode the result is log2 of it.

    Raises:
        MemoryBudgetError: if an (n1, n2, s) table of these sizes would
            exceed TABLE_CELL_BUDGET cells, before any sum.  No table is
            built, but the work grows with the same sizes: (10^6, 10^6,
            5 * 10^5, 10^5) would take minutes.
    """
    check_sizes(at_least=None, n1=n1, n2=n2, r=r, s=s)
    _check_mode(mode)
    count = int(n1 == n2 == r == s == 0)  # the pair of empty compositions
    if 1 <= r <= min(n1, n2) and 0 <= s <= n1 + n2:
        _check_table_cells((min(n1, n2) + 1, max(n1, n2) + 1, s + 1))
        m, odd = divmod(n1 + n2 - s, 2)
        p, q = n1 - m, n2 - m
        if not (odd or p < 0 or q < 0 or m < r):
            count = _compositions_count(m, r) * sum(
                math.comb(r, k) * _compositions_count(p, k) * _compositions_count(q + r - k, r - k)
                for k in range(min(r, p) + 1)
            )
    if mode == "exact":
        return count
    return math.log2(count) if count else NEG_INF


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
    try:
        if not 0.0 < rho < 1.0:
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(f"rho must be in (0,1), got {rho}") from None


def critical_point_closed_form(rho: float, delta: float) -> acsv.CriticalPoint:
    """Closed-form critical point at run density rho and radius density delta.

    The point is (x, x, y, z) in direction (1, 1, rho, delta): the two
    word-length variables share the value x by symmetry, y marks the run
    count and z the L1 distance.  Valid in the smooth regime
    2 - delta - 2*rho > 0 with delta > 0; the saturated regime is handled
    by ball_rate directly.
    """
    _check_rho(rho)
    try:
        if not delta > 0.0:
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(f"delta must be > 0, got {delta}") from None
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
            integer with rho n and delta n integral and at least 1
            (acsv.leading_term).
    """
    try:
        if not 0.0 < delta < math.inf or _ball_branch(rho, delta / 2.0) != "smooth":
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(
            f"leading term needs the smooth branch 0 < delta < 2 beta_max(rho), "
            f"got rho={rho}, delta={delta}"
        ) from None
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
    try:
        if not 0.0 <= beta < math.inf:
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(f"beta must be finite and >= 0, got {beta}") from None
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
    try:
        if not 0.0 <= beta <= 0.5:
            raise TypeError
    except TypeError:  # out of range, or not a real number
        raise DomainError(f"beta must be in [0, 0.5], got {beta}") from None


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
    """Sphere-packing upper bound on the rate at insertion density beta.

    The bound is (1 + 2 beta)(1 - H((1 + beta) / (1 + 2 beta))), computed
    with H's symmetric argument beta / (1 + 2 beta), which keeps the digits
    of a tiny beta that (1 + beta) / (1 + 2 beta) rounds away.
    """
    _check_beta(beta)
    return (1.0 + 2.0 * beta) * (1.0 - entropy(beta / (1.0 + 2.0 * beta)))


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
