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
import sys
from collections import Counter
from functools import cache
from itertools import chain, combinations, combinations_with_replacement
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from . import acsv
from .errors import DimensionMismatchError, DomainError, SizeLimitError
from .numeric import (
    _ABOVE_0, _BELOW_1, _FLOAT_MAX, NEG_INF, TABLE_CELL_BUDGET, CountMode, _check_table_cells,
    _checked_make, _items, _real, _shown, check_sizes, count_mode, entropy,
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
_BRUTEFORCE_SIDE_LIMIT = 10 ** 4  # compositions of one side: each is built as a Python object
_BRUTEFORCE_BLOCK_CELLS = 1 << 14  # part differences |u_i - v_i| per block of the enumeration
_CONFUSABLE_ENUM_LIMIT = 10 ** 6
_LB_BOUNDARY = 0.25  # insertion density from which the crude bound is zero
_CANCELLATION_RATIO = 1e-4  # density ratio below which root - rho (or - delta) loses half its digits


class _CompositionFields(NamedTuple):
    parts: tuple[int, ...]


class Composition(_CompositionFields):
    """Run-length vector: positive integer parts summing to n."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, parts: Sequence[int]):
        parts = _items(parts, "a composition must be a sequence of parts")
        for part in parts:
            check_sizes(at_least=1, part=part)
        cleaned = tuple(int(p) for p in parts)
        if not cleaned:
            raise DomainError("a composition needs at least one part")
        return super().__new__(cls, cleaned)

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
    if n > sys.maxsize:  # before itertools.combinations, which cannot index past it
        raise DomainError(f"n must be at most sys.maxsize, got {_shown(n)}")
    if not n >= r >= 1:
        return iter(())
    return (
        Composition([b - a for a, b in zip((0, *cuts), (*cuts, n))])
        for cuts in combinations(range(1, n), r - 1)
    )


def l1_distance(u: Composition, v: Composition) -> int:
    """Sum of coordinate-wise absolute differences of run lengths."""
    _check_compositions(u, v)
    if u.r != v.r:
        raise DimensionMismatchError(
            f"compositions have different lengths {u.r} and {v.r}"
        )
    return sum(abs(a - b) for a, b in zip(u.parts, v.parts))


def _check_compositions(u: Composition, v: Composition) -> None:
    if not (isinstance(u, Composition) and isinstance(v, Composition)):
        raise DomainError(f"u and v must be Compositions, got {_shown(u)} and {_shown(v)}")


def _check_pair(u: Composition, v: Composition, b: int) -> None:
    _check_compositions(u, v)
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
    if _compositions_count(b + u.r, u.r) > _CONFUSABLE_ENUM_LIMIT:  # weak compositions of b
        raise SizeLimitError(
            f"enumerating {_shown(b)} insertions over {u.r} runs is too large"
        )
    return not _inflations(u, b).isdisjoint(_inflations(v, b))


class PairCountTable(NamedTuple):
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
        if not type(n1) is type(n2) is type(s) is int:  # plain ints need no check_sizes
            check_sizes(at_least=None, n1=n1, n2=n2, s=s)
        if min(n1, n2, s) < 0:
            return False
        n1_max, n2_max, s_max = (dim - 1 for dim in self.entries.shape)
        if n1 > n1_max or n2 > n2_max or s > s_max:
            raise DomainError(
                f"({_shown(n1)},{_shown(n2)},{_shown(s)}) outside table dims "
                f"({n1_max},{n2_max},{s_max})"
            )
        return True

    def count(self, n1: int, n2: int, s: int):
        """Table entry at (n1, n2, s)."""
        return self.entries.item(n1, n2, s) if self._inside(n1, n2, s) else self.mode.zero

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
    P <= min(n1_max, s_max) and Q <= min(n2_max, s_max).  Levels from r
    on read only P <= n1_max - r and Q <= n2_max - r, so D_r is advanced
    on that block alone.

    A table over the cell budget fails on the first next, before D_r is
    made or any product formed.  Each table is filled one M plane at a
    time, for M >= r: C(M - 1, r - 1) D_r[P, Q] goes to (M + P, M + Q,
    P + Q).  An exact plane whose every cell has P + Q <= s_max is written
    whole through one strided view of the table; a log2 plane, or one
    that s_max cuts, on every cell with P + Q <= s_max, a zero product as
    the mode's zero.  Every other entry is the mode's zero.  Exact tables
    hold the exact counts, and a log2 table holds math.log2 of each, at
    every size: the same float that count_pairs_exact gives in log2 mode.

    The generator keeps the entries of the last two tables it yielded, so
    a suspended generator holds at most two earlier tables.  Level r
    reuses the entries of level r - 2 instead of allocating when nothing
    outside the generator refers to them: a kept table, its bare entries
    or any view of them (a view keeps its base alive) blocks the reuse.
    The test compares sys.getrefcount of those entries with its count on
    a fresh table held by one name.  A plane's cells depend on M alone,
    so level r overwrites every cell that level r - 2 wrote on the planes
    M >= r; the planes M = r - 2 and r - 1 are written again with
    C(M - 1, r - 1) = 0, the mode's zero.  The entries of a table that
    was dropped can thus change; a table that is kept never does.
    """
    return _tables(n1_max, n2_max, 1, r_max, s_max, mode)


def _tables(
    n1_max: int, n2_max: int, r_first: int, r_max: int, s_max: int, mode: str
) -> Iterator[PairCountTable]:
    """The tables r = r_first .. r_max of iter_pair_layers; sizes are checked on the first next."""
    check_sizes(n1_max=n1_max, n2_max=n2_max, r_max=r_max, s_max=s_max)
    cm = count_mode(mode)
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    shape = (n1_max + 1, n2_max + 1, s_max + 1)
    if r_first <= r_max:  # before D_r is made and advanced through the levels below r_first
        _check_table_cells(shape)
    m_top = min(n1_max, n2_max)
    d = count_mode("exact").blank((min(n1_max, s_max) + 1, min(n2_max, s_max) + 1))  # D_r[P, Q]
    d[0, 0] = 1
    fits = np.add.outer(np.arange(d.shape[0]), np.arange(d.shape[1])) <= s_max
    held = []  # the entries of the last two tables yielded, the older first
    # a level past m_top is zero and leaves D_r as it is: skip those before r_first
    for r in chain(range(1, min(r_first, m_top + 1)), range(r_first, r_max + 1)):
        if r <= m_top:  # times (1 - ab) / ((1 - a)(1 - b)), on the block levels >= r read
            block = d[: n1_max - r + 1, : n2_max - r + 1]
            block[1:, 1:] = block[1:, 1:] - block[:-1, :-1]
            np.add.accumulate(block, axis=0, out=block)
            np.add.accumulate(block, axis=1, out=block)
        if r < r_first:
            continue
        entries = held.pop(0) if len(held) == 2 else None
        if entries is not None and sys.getrefcount(entries) == free:
            m_first = r - 2  # level r - 2's buffer: its planes r - 2 and r - 1 are cleared
        else:
            entries = cm.blank(shape)
            free = sys.getrefcount(entries)  # a buffer that only this name refers to
            m_first = r
        s0, s1, s2 = entries.strides
        for m in range(m_first, m_top + 1):
            comb = math.comb(m - 1, r - 1)  # 0 on a cleared plane, m < r
            kp, kq = min(n1_max - m + 1, d.shape[0]), min(n2_max - m + 1, d.shape[1])
            if mode == "exact" and kp + kq - 2 <= s_max:
                # the view maps (P, Q) to cell (m + P, m + Q, P + Q) of the C-order
                # entries.  Each index grows with P and Q, and the last cell,
                # (m + kp - 1, m + kq - 1, kp + kq - 2), is inside by the bounds on kp
                # and kq and the test above; distinct (P, Q) differ in the first two
                # indices, so no two cells of the view share an address.  No name
                # keeps the view, which would keep entries from being reused
                np.multiply(
                    d[:kp, :kq], comb, out=as_strided(entries[m, m], (kp, kq), (s0 + s2, s1 + s2))
                )
                continue
            p, q = np.nonzero(fits[:kp, :kq])
            counts = d[p, q] * comb
            if mode == "log2":  # a zero count (D_1 off the axes) is log2's zero
                counts = [math.log2(count) if count else NEG_INF for count in counts.tolist()]
            entries[m + p, m + q, p + q] = counts
        held.append(entries)
        yield PairCountTable(mode=cm, r=r, entries=entries)


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
    if not type(n1) is type(n2) is type(r) is type(s) is int:  # plain ints need no check_sizes
        check_sizes(at_least=None, n1=n1, n2=n2, r=r, s=s)
    cm = count_mode(mode)
    count = int(n1 == n2 == r == s == 0)  # the pair of empty compositions
    if 1 <= r <= min(n1, n2) and 0 <= s <= n1 + n2:
        if (n1 + 1) * (n2 + 1) * (s + 1) > TABLE_CELL_BUDGET:  # one product before the call
            _check_table_cells((n1 + 1, n2 + 1, s + 1))
        m, odd = divmod(n1 + n2 - s, 2)
        p, q = n1 - m, n2 - m
        if not (odd or p < 0 or q < 0 or m < r):
            # comp(P, 0) = [P = 0]; weak(Q, 0) = [Q = 0]; every other factor is a binomial
            total = math.comb(q + r - 1, r - 1) if p == 0 else 0
            for k in range(1, min(r, p) + 1):
                j = r - k
                weak = math.comb(q + j - 1, j - 1) if j else q == 0
                total += math.comb(r, k) * math.comb(p - 1, k - 1) * weak
            count = math.comb(m - 1, r - 1) * total
    if not count:
        return cm.zero
    return count if mode == "exact" else math.log2(count)


def count_pairs_bruteforce(n1: int, n2: int, r: int, s: int) -> int:
    """Pair count by direct enumeration of both composition sets.

    Each (n1, n2, r) is enumerated once: the first call builds the whole
    L1-distance histogram of S(n1,r) x S(n2,r) and caches it, and later
    calls read their bucket from it.

    Raises:
        SizeLimitError: before any composition is built, if either side
            has more than 10^4 compositions or the pairs number more than 10^7.
    """
    if not type(n1) is type(n2) is type(r) is type(s) is int:  # plain ints need no check_sizes
        check_sizes(at_least=None, n1=n1, n2=n2, r=r, s=s)
    if min(n1, n2, r, s) < 0:
        return 0
    if r == 0:
        return 1 if n1 == 0 and n2 == 0 and s == 0 else 0
    if n1 < r or n2 < r:
        return 0
    # with k = min(r - 1, n - r), a side has C(n - 1, r - 1) >= C(2k, k) compositions,
    # and C(16, 8) > 10^4: from k = 8 on it is refused before its binomial is taken
    if max(min(r - 1, n1 - r), min(r - 1, n2 - r)) >= 8:
        raise SizeLimitError(
            f"compositions of {_shown(n1)} or {_shown(n2)} into {_shown(r)} parts exceed the "
            "enumeration limits"
        )
    size1, size2 = _compositions_count(n1, r), _compositions_count(n2, r)
    if max(size1, size2) > _BRUTEFORCE_SIDE_LIMIT or size1 * size2 > _BRUTEFORCE_PAIR_LIMIT:
        raise SizeLimitError(
            f"{_shown(size1)} x {_shown(size2)} composition pairs exceed the enumeration limits"
        )
    return _bruteforce_histogram(n1, n2, r).get(s, 0)


@cache
def _composition_parts(n: int, r: int) -> np.ndarray:
    """The parts of compositions(n, r), one read-only int64 row per composition."""
    import numpy as np

    parts = np.array([w.parts for w in compositions(n, r)], dtype=np.int64)
    parts.flags.writeable = False
    return parts


@cache
def _bruteforce_histogram(n1: int, n2: int, r: int) -> Counter[int]:
    """Ordered pairs in S(n1,r) x S(n2,r) by L1 distance.

    The parts of each side come from _composition_parts, which enumerates
    each (n, r) once per process, however many partner lengths read it.
    The pairs go by blocks of left rows, each with at most
    _BRUTEFORCE_BLOCK_CELLS part differences unless one row has more:
    one broadcast |u - v| summed over the r parts gives the block's
    distances, and one bincount counts them.
    """
    import numpy as np

    left, right = _composition_parts(n1, r), _composition_parts(n2, r)
    counts = np.zeros(n1 + n2 + 1, dtype=np.int64)
    rows = max(1, _BRUTEFORCE_BLOCK_CELLS // right.size)
    for start in range(0, len(left), rows):
        distances = np.abs(left[start:start + rows, None] - right).sum(axis=2)
        counts += np.bincount(distances.ravel(), minlength=counts.size)
    return Counter({s: c for s, c in enumerate(counts.tolist()) if c})


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


def _check_rho(rho: float) -> float:
    return _real(rho, "rho must be in (0,1)", _ABOVE_0, _BELOW_1)


def critical_point_closed_form(rho: float, delta: float) -> acsv.CriticalPoint:
    """Closed-form critical point at run density rho and radius density delta.

    The point is (x, x, y, z) in direction (1, 1, rho, delta): the two
    word-length variables share the value x by symmetry, y marks the run
    count and z the L1 distance.  Valid in the smooth regime
    2 - delta - 2*rho > 0 with delta > 0; the saturated regime is handled
    by ball_rate directly.
    """
    rho = _check_rho(rho)
    delta = _real(delta, "delta must be > 0", _ABOVE_0, math.inf)  # the test below rejects inf
    if not 2.0 - delta - 2.0 * rho > 0.0:
        raise DomainError(
            f"point exists only for 2 - delta - 2*rho > 0, got rho={rho}, delta={delta}"
        )
    x = math.sqrt(1.0 - 2.0 * rho / (2.0 - delta))
    root = math.hypot(rho, delta)  # rho * rho underflows below about 1e-154
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
    rho = _check_rho(rho)
    try:
        delta = _real(delta, "delta", _ABOVE_0)
        if _ball_branch(rho, delta / 2.0) != "smooth":
            raise DomainError
    except DomainError:  # off the smooth branch, or not a finite real number
        raise DomainError(
            f"leading term needs the smooth branch 0 < delta < 2 beta_max(rho), "
            f"got rho={rho}, delta={_shown(delta)}"
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
    rho = _check_rho(rho)
    return (1.0 - rho) / (2.0 - rho)


def _ball_branch(rho: float, beta: float) -> str:
    """Piece of ball_rate that applies at the checked (rho, beta), whose tests ball_rate inlines."""
    if beta == 0.0:
        return "diagonal"
    if beta >= (1.0 - rho) / (2.0 - rho):  # beta_max(rho), without checking rho again
        return "saturated"
    return "smooth"


def ball_rate(rho: float, beta: float) -> float:
    """Asymptotic exponent of the total ball size at radius density 2*beta.

    Piecewise: the entropy H(rho) at beta = 0 (the ball degenerates to
    the diagonal), twice H(rho) once beta reaches beta_max(rho) (the
    ball covers all pairs), and the smooth closed form in between.
    """
    if not (type(rho) is float and 0.0 < rho < 1.0):  # the GV argmax's floats skip _real
        rho = _check_rho(rho)
    if not (type(beta) is float and 0.0 <= beta <= _FLOAT_MAX):
        beta = _real(beta, "beta must be finite and >= 0", 0.0)
    if beta == 0.0:  # the diagonal
        return entropy(rho)
    if beta >= (1.0 - rho) / (2.0 - rho):  # saturated, from beta_max(rho) on
        return 2.0 * entropy(rho)
    delta = 2.0 * beta
    root = math.hypot(rho, delta)
    # conjugate forms keep the differences root - 2 beta and root - rho
    # positive for extreme rho/beta ratios: log2(rho^2 / (root + delta)) and
    # log2(delta^2 / (root + rho)), also where the quotients underflow to 0
    q_r, q_d = rho * rho / (root + delta), delta * delta / (root + rho)
    log_r = math.log2(q_r) if q_r > 0.0 else 2.0 * math.log2(rho) - math.log2(root + delta)
    log_d = math.log2(q_d) if q_d > 0.0 else 2.0 * math.log2(delta) - math.log2(root + rho)
    return (
        -rho
        + delta * math.log2(delta)
        - rho * log_r
        - delta * log_d
        + (-1.0 + rho + beta) * math.log2(2.0 - 2.0 * rho - 2.0 * beta)
        + (1.0 - beta) * math.log2(2.0 - 2.0 * beta)
    )


def _check_beta(beta: float) -> float:
    return _real(beta, "beta must be in [0, 0.5]", 0.0, 0.5)


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
    beta = _check_beta(beta)
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
    beta = _check_beta(beta)
    return (1.0 + 2.0 * beta) * (1.0 - entropy(beta / (1.0 + 2.0 * beta)))


def simple_lb_rate(beta: float) -> float:
    """Crude lower bound from the coarse ball estimate 2^r * C(d+r-1, r-1).

    The closed form is the bound optimized at run density (1 - 4*beta)/3;
    that density leaves the valid range at beta = 1/4, where the formula
    value reaches zero, so the bound is zero from there on.
    """
    beta = _check_beta(beta)
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


class StickyPoint(NamedTuple):
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
    beta = _check_beta(beta)
    gv, rho_star = gv_rate(beta)
    point = StickyPoint(
        beta=beta, capacity=1.0, gv_rate=gv, gv_rho_star=rho_star,
        sp_rate=sp_rate(beta), lb_rate=simple_lb_rate(beta),
        gv_saturated=gv == 0.0 and beta > 0.0, lb_boundary=beta >= _LB_BOUNDARY,
    )
    if rho is None:
        return point
    rho = _check_rho(rho)  # before entropy checks it to [0, 1]
    ball = ball_rate(rho, beta)
    branch = _ball_branch(rho, beta)
    cp = critical_point_closed_form(rho, 2.0 * beta) if branch == "smooth" else None
    return point._replace(
        capacity=entropy(rho), rho=rho, branch=branch, ball_rate=ball,
        critical_point=cp, saturated=branch == "saturated",
    )
