"""Rate bounds for DNA codes under a synthesis-cycle budget.

Strands are synthesized as subsequences of the alternating supersequence
ACGTACGT...: each machine cycle offers one nucleotide, and a strand
consumes the cycles at which its symbols appear.  Appending a symbol
therefore costs the cyclic gap from the previous symbol in the order
A < C < G < T (with a virtual start, so the first symbol A, C, G, T
costs 1, 2, 3, 4 cycles).  The synthesis time of a strand is the cycle
index of its last symbol, and a budget of tau * n cycles constrains the
set of producible length-n strands.

This module provides exact word and pair counting under the budget, the
capacity of the constrained space, the critical point of the pair
generating function, the piecewise upper bound on the total-ball rate,
and the resulting Gilbert-Varshamov and crude lower bounds on code rate
at Hamming distance density delta, all in bits per symbol.

The exact pair counts are by strand Hamming distance, but the closed
forms (pair_generating_denominator, critical_point, delta_max) mark
positions whose two step costs differ; the two distances agree only in
total, at z = 1.  So the closed-form ball rate is flagged upper-bound:
on 108 measured (tau, delta) points it lies 0 to 0.184 bits above the
exact Hamming exponent (measured, not proven).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from typing import TYPE_CHECKING

from . import acsv
from .errors import DomainError, SizeLimitError
from .numeric import (
    CountMode,
    RealPolynomial,
    check_sizes,
    count_mode,
    entropy,
    smallest_positive_root,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ALPHABET",
    "Strand",
    "SynthesisPairTable",
    "SynthesisPoint",
    "synthesis_time",
    "count_words_by_time",
    "count_words_exact",
    "pair_count_table",
    "count_pairs_exact",
    "count_pairs_bruteforce",
    "pair_generating_denominator",
    "capacity",
    "critical_point",
    "delta_max",
    "ball_rate_upper",
    "gv_rate",
    "simple_lb_rate",
    "evaluate_point",
]

ALPHABET = "ACGT"
_RANK = {"A": 1, "C": 2, "G": 3, "T": 4}

LOG2_3 = math.log2(3.0)

# Step costs (a, b) of one position appended to both strands, each 1..4
_STEP_PAIRS = tuple(product(range(1, 5), repeat=2))

_BRUTEFORCE_WORD_LIMIT = 4096
_TAU_FREE = 2.5  # cycle density from which every strand is producible

Strand = str


def _check_strand(w: Strand) -> str:
    bad = set(w) - set(ALPHABET)
    if bad:
        raise DomainError(f"strand contains symbols outside ACGT: {sorted(bad)}")
    return w


def synthesis_time(w: Strand) -> int:
    """Cycle index at which the last symbol of w is synthesized.

    Each step costs the cyclic distance from the previous symbol in the
    order A < C < G < T, between 1 (the cyclic successor) and 4 (the
    same symbol again); the first symbol costs its own rank.  The empty
    strand takes no cycles.
    """
    _check_strand(w)
    if not w:
        return 0
    total = _RANK[w[0]]
    for prev, cur in zip(w, w[1:]):
        total += ((_RANK[cur] - _RANK[prev] - 1) % 4) + 1
    return total


def count_words_by_time(n: int) -> list[int]:
    """Exact number of length-n strands at each synthesis time.

    Entry t of the returned list counts strands with synthesis time
    exactly t; the list has length 4n + 1 (times range from n to 4n).
    The step costs relative to the previous symbol are a bijection onto
    {1,2,3,4} per position, so the count only depends on the cost sums.
    """
    check_sizes(n=n)
    counts = [1]
    for _ in range(n):
        counts = _conv(counts, [0, 1, 1, 1, 1])  # one step of cost 1..4
    return counts


def count_words_exact(n: int, t_max: int) -> int:
    """Number of length-n strands with synthesis time at most t_max."""
    check_sizes(n=n)
    check_sizes(at_least=None, t_max=t_max)
    by_time = count_words_by_time(n)
    return sum(by_time[: max(t_max + 1, 0)])


@dataclass(frozen=True)
class SynthesisPairTable:
    """Pair counts at one strand length, resolved by combined time.

    entries[d, t, s] counts ordered strand pairs (u, v) of length n with
    synthesis_time(u) + synthesis_time(v) = t, Hamming distance s, and
    rank(u_n) - rank(v_n) = d (mod 4).  The d axis is an internal state
    of the recursion: Hamming agreement at a position depends on the
    rank difference carried from the previous position, not only on the
    two step costs, so the counts split by it.  Public queries sum it
    out.  Entries are stored in the count mode `mode`.  The table is never
    truncated: it covers the whole support, and any index outside it counts zero.
    """

    mode: CountMode
    n: int
    entries: np.ndarray

    def count(self, t: int, s: int):
        """Pairs at combined time t and distance s (d summed out)."""
        check_sizes(at_least=None, t=t, s=s)
        if not (0 <= t < self.entries.shape[1] and 0 <= s < self.entries.shape[2]):
            return self.mode.zero
        return self.mode.sum(self.entries[:, t, s])

    def total(self, t_cap: int, s_cap: int):
        """Pairs with combined time <= t_cap and distance <= s_cap."""
        check_sizes(at_least=None, t_cap=t_cap, s_cap=s_cap)
        if min(t_cap, s_cap) < 0:
            return self.mode.zero
        return self.mode.sum(self.entries[:, : t_cap + 1, : s_cap + 1])


def pair_count_table(n: int, mode: str = "exact") -> SynthesisPairTable:
    """Build the pair-count table for strand length n.

    Appends one position to both words at a time.  A position appends
    step costs (a, b) in {1..4}^2, adds a + b to the combined time, and
    moves the rank difference from d to d + a - b (mod 4); the position
    matches exactly when the new difference is 0.

    The 16 pairs fall into four classes by e = a - b (mod 4), and in x
    (one cycle of combined time) the class time polynomials factor as
    T0 = x^2 (1+x^2)(1+x^4), T1 = T3 = x^3 (1+x^2)^2 and
    T2 = 2 x^4 (1+x^2).  With V_d = (1+x^2) L_d for the level L, a step is

        nxt[d] = shift_miss(x^2 (1+x^4) V_d + x^3 (1+x^2)(V_{d-1} + V_{d+1})
                            + 2 x^4 V_{d+2}),

    where multiplying by x^j shifts the t axis by j and shift_miss moves
    s up by one unless d = 0.  Swapping the two words maps d to -d, so
    the d = 3 slab equals the d = 1 slab at every step; the kernel
    computes d = 0, 1, 2 only and copies entries[1] to entries[3] at the
    end.  V is summed in place of L, the unused d = 3 slab holds
    (1+x^2) 2 V_1, one scratch slab holds (1+x^2)(V_0 + V_2), and the
    doubled term is added twice rather than stored: about 20 adds per
    band cell and step, not 48.  Separate slabs for each factor would
    hold several more big-integer slabs at once and raise the peak
    memory of an exact table.

    Each step reads only the band where the level can be nonzero: after
    k positions the combined time is a sum of k step-cost pairs, each
    2..8, so t lies in [2k, 8k], and at most k positions mismatch, so
    s <= k.  The two (1+x^2) factors widen the t band by 4 cycles before
    the shifts.  Every cell outside the band is zero, and adding a zero
    leaves a count unchanged.

    Each pair also adds a + b = a - b (mod 2), so t = d (mod 2) in every
    slab d, and every other t is zero.  The kernel stores slab d on
    t = 2q + (d mod 2) only, at q: x^2 and x^4 shift q by 1 and 2, and
    x^3, which moves an odd slab into an even one or back, by 2 into an
    even slab and by 1 into slab 1, so every shift is a contiguous slice
    of half the length.  The table is allocated before the first step,
    so one over the cell budget fails before any sum, and the slabs are
    expanded into it, to every t, once at the end.

    Every entry is at most 16^n, so a log2 table up to n = 250 sums
    linear float64 counts and takes log2 once at the end (see
    CountMode._accumulator); a larger one sums with logaddexp2.  Exact
    tables hold the exact counts, and log2 tables match log2 of them
    within about 1e-13.
    """
    check_sizes(n=n)
    cm = count_mode(mode)
    acc = cm._accumulator(4 * n)
    entries = acc.blank((4, 8 * n + 1, n + 1))  # before any step
    level = acc.blank((4, 4 * n + 1, n + 1))  # slab d holds t = 2q + d % 2 at q
    level[0, 0, 0] = acc.one
    for k in range(n):
        band = level[:, k : 4 * k + 3, : k + 1]  # q from k, room for the two (1 + x^2)
        acc.add(band[:3, 1:], band[:3, :-1], out=band[:3, 1:])  # V = (1 + x^2) L
        u = band[3]  # d = 3 repeats d = 1, so its slab holds (1 + x^2) 2 V_1
        acc.add(band[1], band[1], out=u)
        acc.add(u[1:], u[:-1], out=u[1:])
        w = acc.add(band[0], band[2])  # (1 + x^2)(V_0 + V_2)
        acc.add(w[1:], w[:-1], out=w[1:])
        v = band[:, : 3 * k + 2]  # V_d is nonzero on q < 4k + 2
        nxt = acc.blank(level.shape)
        for d, cross, lag, far in ((0, u, 2, v[2]), (1, w, 1, v[1]), (2, u, 2, v[0])):
            miss = int(d != 0)  # the position mismatches
            dst = nxt[d, k:, miss : k + 1 + miss]
            dst[1 : 3 * k + 3] = v[d]
            acc.add(dst[3 : 3 * k + 5], v[d], out=dst[3 : 3 * k + 5])
            acc.add(dst[lag : 3 * k + 3 + lag], cross, out=dst[lag : 3 * k + 3 + lag])
            for _ in range(2):
                acc.add(dst[2 : 3 * k + 4], far, out=dst[2 : 3 * k + 4])
        level = nxt
    level[3] = level[1]
    for d in range(4):
        entries[d, d % 2 :: 2] = level[d, : 4 * n + 1 - d % 2]
    return SynthesisPairTable(mode=cm, n=n, entries=acc._finish(entries))


def count_pairs_exact(n: int, t: int, s: int, mode: str = "exact"):
    """Ordered strand pairs at combined time t and Hamming distance s."""
    check_sizes(n=n)
    check_sizes(at_least=None, t=t, s=s)
    cm = count_mode(mode)
    if not (2 * n <= t <= 8 * n and 0 <= s <= n):
        return cm.zero  # outside the support, before any table is built
    return pair_count_table(n, mode).count(t, s)


def count_pairs_bruteforce(n: int, t: int, s: int) -> int:
    """Pair count by enumeration of all length-n strand pairs.

    Each n is enumerated once: the first call builds the whole (t, s)
    histogram of the 4^n x 4^n pairs and caches it, and later calls at
    the same n read their bucket from it.
    """
    check_sizes(n=n)
    check_sizes(at_least=None, t=t, s=s)
    if 4 ** n > _BRUTEFORCE_WORD_LIMIT:
        raise SizeLimitError(f"4^{n} strands exceed the enumeration limit")
    return _bruteforce_histogram(n).get((t, s), 0)


@cache
def _bruteforce_histogram(n: int) -> dict[tuple[int, int], int]:
    """Ordered length-n strand pairs by (combined time, Hamming distance).

    One row of pairs (u, all v) at a time, so memory stays at O(4^n).
    """
    import numpy as np

    strands = list(product(ALPHABET, repeat=n))
    times = np.array([synthesis_time("".join(w)) for w in strands], dtype=np.int64)
    symbols = np.array(strands, dtype="U1")
    width = n + 1  # distances 0..n
    flat = np.zeros((8 * n + 1) * width, dtype=np.int64)
    for i in range(len(strands)):
        dist = np.count_nonzero(symbols != symbols[i], axis=1)
        flat += np.bincount((times[i] + times) * width + dist, minlength=flat.size)
    return {divmod(int(k), width): int(flat[k]) for k in np.flatnonzero(flat)}


@cache
def pair_generating_denominator() -> acsv.SparseMultivariatePolynomial:
    """Denominator of the pair generating function in (x, y, z).

    Factored form: 1 - x y^2 (1 + y^2) ((1 + y^4) + 2 z y (1 + y + y^2)),
    built as 1 - x sum over the step-cost pairs (a, b) of y^(a+b) z^[a != b].
    """
    return acsv.SparseMultivariatePolynomial(
        3, [((0, 0, 0), 1.0)] + [((1, a + b, int(a != b)), -1.0) for a, b in _STEP_PAIRS]
    )


def _conv(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out

# Shared coefficient blocks of the critical-point equations, ascending in y.
_POLY_G = _conv([1, 0, 1], [1, 0, 0, 0, 1])          # (1+y^2)(1+y^4)
_POLY_A = _conv(_POLY_G, [1, 1, 1])                  # (1+y^2)(1+y^4)(1+y+y^2)
_POLY_B0 = [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0]       # 1+2y^2+3y^4+4y^6
_POLY_B = _conv([1, 1, 1], _POLY_B0)                 # (1+y+y^2)(1+2y^2+3y^4+4y^6)
_POLY_C = _conv([1, 0, 0, 0, -1], [1, 2, 4, 2, 1])   # (1-y^4)(1+2y+4y^2+2y^3+y^4)
_POLY_D = RealPolynomial([1.0, 2.0, 2.0, 2.0, 1.0])  # (1+y^4)+2y(1+y+y^2)


def _check_tau(tau: float) -> None:
    if not 1.0 < tau < math.inf:
        raise DomainError(f"tau must be > 1 and finite, got {tau}")


@lru_cache(maxsize=None)
def capacity(tau: float) -> float:
    """Exponent of the number of strands producible in tau cycles per symbol.

    Below tau = 5/2 the rate is set by the positive root of the cubic
    (4-tau) y^3 + (3-tau) y^2 + (2-tau) y + (1-tau); from 5/2 on every
    strand is producible and the rate is the full 2 bits.
    """
    _check_tau(tau)
    if tau >= _TAU_FREE:
        return 2.0
    cubic = RealPolynomial([1.0 - tau, 2.0 - tau, 3.0 - tau, 4.0 - tau])
    y = smallest_positive_root(cubic).root
    x = 1.0 / (y + y ** 2 + y ** 3 + y ** 4)
    return -math.log2(x) - tau * math.log2(y)


def critical_point(tau: float, delta: float) -> acsv.CriticalPoint:
    """Critical point at cycle density tau and distance density delta.

    The point is (x, y, z) in direction (1, 2 tau, delta): x marks strand
    length, y one cycle of combined synthesis time and z one position
    whose two step costs differ.  The y coordinate is the smallest
    positive root of the defining equation cleared to a single
    polynomial; x and z follow in closed form.  Valid for 0 < delta < 1,
    except at the smallest subnormal deltas, where z underflows.
    """
    _check_tau(tau)
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0,1), got {delta}")
    coeffs = [
        2.0 * tau * a - 2.0 * b - delta * c
        for a, b, c in zip(_POLY_A, _POLY_B, _POLY_C)
    ]
    y = smallest_positive_root(RealPolynomial(coeffs)).root
    x = (1.0 - delta) / (y ** 2 * (1.0 + y ** 2) * (1.0 + y ** 4))
    z = delta * (1.0 + y ** 4) / (2.0 * (1.0 - delta) * y * (1.0 + y + y ** 2))
    if z == 0.0:
        raise DomainError(f"delta {delta} is too small: the z coordinate underflows to 0")
    return acsv.CriticalPoint.at(
        pair_generating_denominator(), (1.0, 2.0 * tau, delta), (x, y, z)
    )


@lru_cache(maxsize=None)
def delta_max(tau: float) -> tuple[float, float]:
    """Distance density where the ball rate saturates, with its y root.

    Solves for the smallest positive y at which the z coordinate of the
    critical point reaches 1, then reads the saturating delta from
    delta = 2 y (1 + y + y^2) / ((1 + y^4) + 2 y (1 + y + y^2)).
    Returns (delta_max, y_min).
    """
    if not 1.0 < tau < _TAU_FREE:
        raise DomainError(f"tau must be in (1, 2.5), got {tau}")
    tg_minus_b = [tau * g - b for g, b in zip(_POLY_G, _POLY_B0)]
    lhs = _conv(_POLY_D.coefficients, tg_minus_b)
    rhs = [0.0] + _POLY_C
    coeffs = [l - r for l, r in zip(lhs, rhs + [0.0] * (len(lhs) - len(rhs)))]
    y = smallest_positive_root(RealPolynomial(coeffs)).root
    dm = 2.0 * y * (1.0 + y + y ** 2) / _POLY_D.evaluate(y)
    return dm, y


@dataclass(frozen=True)
class SynthesisPoint:
    """One synthesis-channel evaluation: every printed value, branch and flag.

    branch is the piece of the ball rate bound taken (unconstrained,
    diagonal, saturated or smooth); delta_max is set when tau < 5/2,
    critical_point on the smooth piece.  gv_floored and lb_floored mark
    bounds floored at zero.
    """

    tau: float
    capacity: float
    delta: float
    branch: str
    ball_rate_upper: float
    gv_rate: float
    lb_rate: float
    saturated: bool
    gv_floored: bool
    lb_floored: bool
    delta_max: float | None = None
    critical_point: acsv.CriticalPoint | None = None


def evaluate_point(tau: float, delta: float) -> SynthesisPoint:
    """Evaluate the capacity, the ball and the bounds at (tau, delta).

    The ball rate bound is piecewise in (tau, delta).  For tau >= 5/2 the
    space is unconstrained and the bound is the quaternary Hamming-ball
    exponent 2 + H(delta) + delta*log2(3), capped at 4 from delta = 3/4
    on.  For tau < 5/2 it is the capacity itself at delta = 0, where only
    the diagonal pairs remain; it follows the critical point up to the
    saturating density delta_max; and from there on it is twice the
    capacity.  The crude bound subtracts the same capped Hamming-ball
    exponent, without the 2, from the capacity.
    """
    _check_tau(tau)
    if delta is None or not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must be in [0,1], got {delta}")
    cap = capacity(tau)
    dm = cp = None
    if tau >= _TAU_FREE:
        branch = "unconstrained"
        ball = 4.0 if delta >= 0.75 else 2.0 + entropy(delta) + delta * LOG2_3
    else:
        dm, _ = delta_max(tau)
        if delta == 0.0:
            branch, ball = "diagonal", cap
        elif delta >= dm:
            branch, ball = "saturated", 2.0 * cap
        else:
            branch = "smooth"
            cp = critical_point(tau, delta)
            ball = acsv.growth_exponent(cp)
    gv = 2.0 * cap - ball
    lb = cap - 2.0 if delta >= 0.75 else cap - entropy(delta) - delta * LOG2_3
    return SynthesisPoint(
        tau=tau, capacity=cap, delta=delta, branch=branch, delta_max=dm,
        critical_point=cp, ball_rate_upper=ball, gv_rate=max(gv, 0.0),
        lb_rate=max(lb, 0.0), saturated=branch == "saturated",
        gv_floored=gv < 0.0, lb_floored=lb < 0.0,
    )


def ball_rate_upper(tau: float, delta: float) -> float:
    """Upper bound on the exponent of the total ball size (see evaluate_point)."""
    return evaluate_point(tau, delta).ball_rate_upper


def gv_rate(tau: float, delta: float) -> float:
    """Gilbert-Varshamov lower bound 2*Cap - ball rate, floored at zero."""
    return evaluate_point(tau, delta).gv_rate


def simple_lb_rate(tau: float, delta: float) -> float:
    """Crude lower bound Cap - H(delta) - delta*log2(3), floored at zero.

    Uses the coarse ball estimate C(n, d) * 3^d, capped at the 4^n strands
    from delta = 3/4 on, so the bound is zero there.
    """
    return evaluate_point(tau, delta).lb_rate
