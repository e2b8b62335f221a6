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
from functools import cache, lru_cache
from itertools import accumulate, product
from typing import TYPE_CHECKING, NamedTuple

from . import acsv
from .errors import DomainError, SizeLimitError
from .numeric import (
    _ABOVE_0,
    _BELOW_1,
    NEG_INF,
    CountMode,
    RealPolynomial,
    _check_table_cells,
    _real,
    _shown,
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

_BRUTEFORCE_MAX_N = 6  # 4^6 = 4096 strands, enumerated in pairs
# strands u per block of pairs (u, all v) with one-byte keys, fewer with wider ones: at n = 5,
# 8-row blocks of int64 keys took 14.1 ms, of uint8 10.8 ms, and 64-row ones 6.3 ms, for
# about 0.5 MB more peak RSS of `verify all` (bincount widens each block to int64)
_BRUTEFORCE_BLOCK_ROWS = 64
_WORD_COUNT_MAX_N = 1000  # strand length limit of count_words_by_time
_TAU_FREE = 2.5  # cycle density from which every strand is producible
_ABOVE_1 = math.nextafter(1.0, 2.0)

# Largest log2 bound on its counts at which a log2 pair_count_table is summed
# in linear float64 counts.  Far enough below the float64 overflow at 2^1024
# that no sum of counts under the bound can reach it.
_LINEAR_LOG2_BITS = 1000

# An exact pair_count_table sums uint64 limbs of radix 2^56, which leaves 8
# bits of headroom for two steps between carries; radix 2^56 in uint64
# summed the DP faster than radix 2^24 in uint32 and held less memory.
_LIMB_BITS = 56
_LIMB_MASK = (1 << _LIMB_BITS) - 1

# Steps k below this sum the whole band of a pair_count_table level, and the
# later ones its lower half and a margin.  Below k = 8 a step's two mirror
# copies cost about what the rows they spare save (exact tables, 2 cores), and
# from k = 3 on every mirrored row lies in the support.
_FULL_BAND_STEPS = 8

Strand = str


def _check_strand(w: Strand) -> str:
    if not isinstance(w, str):
        raise DomainError(f"a strand must be a string over ACGT, got {_shown(w)}")
    if w.strip(ALPHABET):  # strip stops at a symbol outside ACGT, from either end
        raise DomainError(f"strand contains symbols outside ACGT: {sorted(set(w) - set(ALPHABET))}")
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

    Each of the n steps is a width-4 window sum over prefix sums, so it
    adds and subtracts integers of up to 2n bits and multiplies none.
    The steps take 0.21 to 0.33 s at the limit n = _WORD_COUNT_MAX_N =
    1,000 and 12 s at n = 4,000 (2 cores, Python 3.11), so a larger n
    raises SizeLimitError before the first.
    """
    check_sizes(n=n)
    if n > _WORD_COUNT_MAX_N:
        raise SizeLimitError(
            f"{_shown(n)} positions exceed the word-count limit of {_WORD_COUNT_MAX_N}"
        )
    counts = [1]
    for _ in range(n):
        # one step of cost 1..4 multiplies by y + y^2 + y^3 + y^4: entry i
        # becomes P[i] - P[i - 4], P[i] the sum of the first i entries
        prefix = [0, 0, 0, 0, *accumulate(counts + [0, 0, 0], initial=0)]
        counts = [b - a for a, b in zip(prefix, prefix[4:])]
    return counts


def count_words_exact(n: int, t_max: int) -> int:
    """Number of length-n strands with synthesis time at most t_max.

    SizeLimitError above n = _WORD_COUNT_MAX_N, as count_words_by_time.
    """
    check_sizes(n=n)
    check_sizes(at_least=None, t_max=t_max)
    by_time = count_words_by_time(n)
    return sum(by_time[: max(t_max + 1, 0)])


class SynthesisPairTable(NamedTuple):
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
        if not type(t) is type(s) is int:  # plain ints need no check_sizes
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
    end.  V is summed in place of L, a band-sized scratch u holds
    (1+x^2) 2 V_1, another w holds (1+x^2)(V_0 + V_2), and the doubled
    term is added twice rather than stored: about 20 adds per band cell
    and step, not 48.  Two level buffers take turns as the level and the
    next level.

    Each step reads only the band where the level can be nonzero: after
    k positions the combined time is a sum of k step-cost pairs, each
    2..8, so t lies in [2k, 8k], and at most k positions mismatch, so
    s <= k.  The two (1+x^2) factors widen the t band by 4 cycles before
    the shifts.  Every cell outside the band is zero, and adding a zero
    leaves a count unchanged.  A buffer keeps stale sums below the band
    it last held, which no later step reads.

    Each pair also adds a + b = a - b (mod 2), so t = d (mod 2) in every
    slab d, and every other t is zero.  The kernel stores slab d on
    t = 2q + (d mod 2) only, at q: x^2 and x^4 shift q by 1 and 2, and
    x^3, which moves an odd slab into an even one or back, by 2 into an
    even slab and by 1 into slab 1, so every shift is a contiguous slice
    of half the length.  The table is allocated before the level buffers
    and the first step, so one over the cell budget fails before either,
    and the final band is expanded into it, to every t, once at the end.
    An exact table also counts the cells of its two limb buffers,
    2 * limbs * 3 * (4n + 1) * (n + 1), against the budget before the
    table is allocated: they outgrow it from n = 336.

    Each level is mirror-symmetric in t, and most steps sum only the lower
    half of its band.  Reflecting both words' step costs, a -> 5 - a, maps
    the combined time t to 10k - t after k positions and d to -d, and keeps
    every match and mismatch; swapping the two words maps d back with t
    and s kept.  So each slab holds N_k(d, t, s) = N_k(d, 10k - t, s): in
    rows counted from q = k, row i of slab d mirrors row c - i, with
    c = 3k - d % 2.  The float sums are symmetric too, bit for bit: at
    mirrored cells each sum adds the same two operands, and numpy.add and
    numpy.logaddexp2 are commutative.  Step k sums the whole band, 3k + 3
    rows, while k < _FULL_BAND_STEPS, and from there floor(3k/2) + 4
    rows, the lower half and a margin.  Every shift moves counts to a
    larger q, so the first `rows` rows of level k + 1 are the full sums of
    the rows step k read (and after a whole band so is every row).  The
    rows above hold stale sums until the next step fills the ones it reads
    from their mirrors, each of which lies in the summed rows.  At the end
    only the summed rows are converted, and the table's entries from
    t = 2n + 2 rows - 1 on are copied from t' = 10n - t.

    Every entry is at most 16^n, and the table is summed in one of three
    forms, chosen here from the mode and n:
    - exact: uint64 limbs of radix 2^56, lowest first, on a trailing axis
      of each level buffer, stored limb-major so that numpy sums each limb
      as one contiguous slab.  A carry leaves every limb below 2^56, and
      since one step grows a count at most 16-fold, the 8 bits of headroom
      take two steps of sums: the carries are propagated after every second
      step, on every row the next step reads or fills from its mirror.
      Step k works only on the limbs that a count of 16^(k+1) reaches.  Each
      summed cell of the final band becomes a Python int at the end, shifted
      and added limb by limb from the top, carried or not.
    - log2 while 4n <= 1000 (n <= 250): float64 counts summed with
      numpy.add, which rounds once per sum, and log2 taken once at the end.
    - log2 above: log2 counts summed with numpy.logaddexp2.  Linear counts
      rescaled per step instead would underflow the count-1 cells below the
      smallest float64, 2^-1074.
    Exact tables hold the exact counts.  A log2 table's worst error against
    log2 of the exact counts measured 5.7e-14 at n = 100, 1.1e-13 at n = 250
    and 4.5e-13 at n = 251.
    """
    check_sizes(n=n)
    cm = count_mode(mode)
    exact, linear = mode == "exact", 4 * n <= _LINEAR_LOG2_BITS
    shape = (3, 4 * n + 1, n + 1)  # slab d holds t = 2q + d % 2 at q
    limbs = 4 * n // _LIMB_BITS + 1  # as many limbs as a count of 16^n = 2^(4n) takes
    if exact:  # the two limb buffers, checked before the table is allocated
        _check_table_cells((2, limbs, *shape))
    entries = cm.blank((4, 8 * n + 1, n + 1))  # before any buffer or step
    import numpy as np

    if exact:
        level, nxt = (np.moveaxis(np.zeros((limbs, *shape), np.uint64), 0, -1) for _ in range(2))
        level[0, 0, 0, 0] = 1
    else:
        zero, one = (0.0, 1.0) if linear else (NEG_INF, 0.0)
        level, nxt = np.full(shape, zero), np.full(shape, zero)
        level[0, 0, 0] = one
    add = np.add if exact or linear else np.logaddexp2
    rows = 1  # level 0 is whole: its one row of support, and zeros above
    for k in range(n):
        # the rows of level k that step k reads, from q = k
        summed, rows = rows, 3 * k + 3 if k < _FULL_BAND_STEPS else 3 * k // 2 + 4
        if exact:  # the limbs that a count after k + 1 positions, at most 2^(4k+4), reaches
            live = (4 * k + 4) // _LIMB_BITS + 1
            _step(add, level[..., :live], nxt[..., :live], k, summed, rows)
            if k % 2 == 1:  # and one row more: the top of level k + 1 after a whole band
                _carry(nxt[:, k + 1 : k + 2 + rows, : k + 2, :live])
        else:
            _step(add, level, nxt, k, summed, rows)
        level, nxt = nxt, level
    del nxt  # one buffer fewer at the conversion, where an exact table peaks
    final = level[:, n : n + rows]  # the rows the last step summed, from q = n
    if exact:
        final = _limbs_to_ints(final)
    elif linear:
        with np.errstate(divide="ignore"):
            np.log2(final, out=final)
    top = 2 * n + 2 * rows - 1  # from this t on, each entry is copied from t' = 10n - t
    for d in range(3):
        entries[d, 2 * n + d % 2 : top : 2] = final[d, : rows - d % 2]
    entries[:3, top:] = entries[:3, 2 * n : 10 * n + 1 - top][:, ::-1]
    entries[3] = entries[1]
    return SynthesisPairTable(mode=cm, n=n, entries=entries)


def _step(
    add: np.ufunc, level: np.ndarray, nxt: np.ndarray, k: int, summed: int, rows: int
) -> None:
    """One step of pair_count_table: the level after k + 1 positions, summed into nxt.

    level holds the counts after k positions from q = k: on every row if
    step k - 1 summed its whole band (summed = 3k), and otherwise only on
    its first `summed` rows; then the rows from `summed` to `rows` are
    filled first, from their mirrors: row i of slab d from row c - i with
    c = 3k - d % 2, which lies below `summed`.  The first `rows` rows are
    then overwritten with V, and nxt gets the level after k + 1 positions
    on its first `rows` rows from q = k + 1, or on every row after a whole
    band, rows = 3k + 3.  A few rows of nxt above those get part of their
    sums added to stale values, and hold no counts until the next step
    fills them from their mirrors.  add is the sum of two counts in the
    table's summing form.
    """
    band = level[:, k : k + rows, : k + 1]  # q from k
    if summed < 3 * k:  # step k - 1 summed part of its band
        for slabs, c in ((band[::2], 3 * k), (band[1:2], 3 * k - 1)):
            slabs[:, summed:] = slabs[:, c + 1 - rows : c + 1 - summed][:, ::-1]
    add(band[:, 1:], band[:, :-1], out=band[:, 1:])  # V = (1 + x^2) L
    u = add(band[1], band[1])  # d = 3 repeats d = 1: (1 + x^2) 2 V_1
    add(u[1:], u[:-1], out=u[1:])
    w = add(band[0], band[2])  # (1 + x^2)(V_0 + V_2)
    add(w[1:], w[:-1], out=w[1:])
    v = band[:, : 3 * k + 2]  # V_d is nonzero on q < 4k + 2
    m = v.shape[1]
    for d, cross, lag, far in ((0, u, 2, v[2]), (1, w, 1, v[1]), (2, u, 2, v[0])):
        miss = int(d != 0)  # the position mismatches
        dst = nxt[d, k:, miss : k + 1 + miss]
        dst[1 : m + 1] = v[d]
        add(dst[3 : m + 3], v[d], out=dst[3 : m + 3])
        add(dst[lag : rows + lag], cross, out=dst[lag : rows + lag])
        for _ in range(2):
            add(dst[2 : m + 2], far, out=dst[2 : m + 2])


def _carry(limbs: np.ndarray) -> None:
    """Propagate the carries of limb counts in place, leaving every limb below 2^56.

    The counts must fit the limbs, so the top limb takes its carry without overflow.
    """
    for limb in range(limbs.shape[-1] - 1):
        limbs[..., limb + 1] += limbs[..., limb] >> _LIMB_BITS
        limbs[..., limb] &= _LIMB_MASK


def _limbs_to_ints(limbs: np.ndarray) -> np.ndarray:
    """Limb counts, carried or not, as a new object array of Python ints, by shift-and-add."""
    counts = limbs[..., -1].astype(object)
    for limb in range(limbs.shape[-1] - 2, -1, -1):
        counts <<= _LIMB_BITS
        counts += limbs[..., limb]
    return counts


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
    if not (type(n) is type(t) is type(s) is int and n >= 0):  # plain ints need no check_sizes
        check_sizes(n=n)
        check_sizes(at_least=None, t=t, s=s)
    if n > _BRUTEFORCE_MAX_N:  # before 4 ** n, which a huge n never finishes
        raise SizeLimitError(f"4^{_shown(n)} strands exceed the enumeration limit")
    return _bruteforce_histogram(n).get((t, s), 0)


@cache
def _bruteforce_histogram(n: int) -> dict[tuple[int, int], int]:
    """Ordered length-n strand pairs by (combined time, Hamming distance).

    Every pair is keyed time_sum * (n + 1) + distance in the smallest dtype
    that holds (8n + 1)(n + 1) - 1, uint8 up to n = 5 and uint16 at n = 6.
    The pairs go by blocks of _BRUTEFORCE_BLOCK_ROWS // itemsize rows (u,
    all v): each position adds its u != v comparison to the block's keys,
    and one bincount counts them: 64 KiB of keys at n = 5, 256 KiB at n = 6.
    """
    import numpy as np

    strands = ["".join(w) for w in product(ALPHABET, repeat=n)]
    width = n + 1  # distances 0..n
    flat = np.zeros((8 * n + 1) * width, dtype=np.int64)
    key_type = np.min_scalar_type(flat.size - 1)
    times = np.array([synthesis_time(w) for w in strands], dtype=key_type)
    # the ASCII code of each symbol, one row per position (none when n = 0)
    codes = np.frombuffer("".join(strands).encode("ascii"), dtype=np.uint8)
    columns = codes.reshape(len(strands), n).T
    keys = times * width
    block_rows = _BRUTEFORCE_BLOCK_ROWS // key_type.itemsize
    for start in range(0, len(strands), block_rows):
        rows = slice(start, start + block_rows)
        block = keys[rows, None] + keys
        for column in columns:
            block += column[rows, None] != column
        flat += np.bincount(block.ravel(), minlength=flat.size)
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


def _check_tau(tau: float) -> float:
    return _real(tau, "tau must be > 1 and finite", _ABOVE_1)


def capacity(tau: float) -> float:
    """Exponent of the number of strands producible in tau cycles per symbol.

    Below tau = 5/2 the rate is set by the positive root of the cubic
    (4-tau) y^3 + (3-tau) y^2 + (2-tau) y + (1-tau); from 5/2 on every
    strand is producible and the rate is the full 2 bits.
    """
    return _capacity(_check_tau(tau))  # before the cache, which cannot hash a list


@lru_cache(maxsize=None)
def _capacity(tau: float) -> float:
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
    tau = _check_tau(tau)
    delta = _real(delta, "delta must be in (0,1)", _ABOVE_0, _BELOW_1)
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


def delta_max(tau: float) -> tuple[float, float]:
    """Distance density where the ball rate saturates, with its y root.

    Solves for the smallest positive y at which the z coordinate of the
    critical point reaches 1, then reads the saturating delta from
    delta = 2 y (1 + y + y^2) / ((1 + y^4) + 2 y (1 + y + y^2)).
    Returns (delta_max, y_min).
    """
    tau = _real(tau, "tau must be in (1, 2.5)", _ABOVE_1, math.nextafter(_TAU_FREE, 0.0))
    return _delta_max(tau)  # checked before the cache, which cannot hash a list


@lru_cache(maxsize=None)
def _delta_max(tau: float) -> tuple[float, float]:
    tg_minus_b = [tau * g - b for g, b in zip(_POLY_G, _POLY_B0)]
    lhs = _conv(_POLY_D.coefficients, tg_minus_b)
    rhs = [0.0] + _POLY_C
    coeffs = [l - r for l, r in zip(lhs, rhs + [0.0] * (len(lhs) - len(rhs)))]
    y = smallest_positive_root(RealPolynomial(coeffs)).root
    dm = 2.0 * y * (1.0 + y + y ** 2) / _POLY_D.evaluate(y)
    return dm, y


class SynthesisPoint(NamedTuple):
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
    tau = _check_tau(tau)
    delta = _real(delta, "delta must be in [0,1]", 0.0, 1.0)
    cap = _capacity(tau)  # tau and delta are checked floats from here on
    dm = cp = None
    if tau >= _TAU_FREE:
        branch = "unconstrained"
        ball = 4.0 if delta >= 0.75 else 2.0 + entropy(delta) + delta * LOG2_3
    else:
        dm, _ = _delta_max(tau)
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
