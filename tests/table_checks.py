"""Comparisons of log2 pair-count tables with exact ones, shared by the kernel tests,
and slower or fuller reference kernels for both pair-count DPs."""

import math

import numpy as np

from gvbound import synthesis


def log2_of(entries):
    """numpy.log2 of an exact table's float64 counts, -inf for zero, as the synthesis
    DP's linear float64 sums finish."""
    with np.errstate(divide="ignore"):
        return np.log2(entries.astype(np.float64))


def log2_of_each(entries):
    """math.log2 of each nonzero count of an exact table, -inf for zero, as float64."""
    values = [math.log2(count) if count else -math.inf for count in entries.ravel().tolist()]
    return np.array(values, dtype=np.float64).reshape(entries.shape)


def worst_log2_error(logs, exact):
    """Largest |log2 entry - log2(exact count)|; a zero count must read -inf."""
    worst = 0.0
    for count, value in zip(exact.ravel().tolist(), logs.ravel().tolist()):
        if count == 0:
            assert value == -math.inf
        else:
            worst = max(worst, abs(value - math.log2(count)))
    return worst


def sticky_layers_by_full_slabs(n1_max, n2_max, r_max, s_max):
    """The exact entries of sticky.iter_pair_layers for r = 1 .. r_max, from whole prefix slabs.

    With N the level r-1 table, sums M1 (the prefix along n2) and M2 (the
    prefix along n1) over the whole band, P = N + M1 + M2, and the level r
    table as the diagonal prefix A(n1, n2) = P(n1-1, n2-1) + A(n1-1, n2-1).
    No symmetry is used: every slab is summed in full, in either orientation.
    """
    level = np.zeros((n1_max + 1, n2_max + 1, s_max + 1), dtype=object)
    level[0, 0, 0] = 1
    for r in range(1, r_max + 1):
        lo = r - 1
        hi = min(max(n1_max + n2_max - 2 * lo, 0), s_max)
        m1 = np.zeros_like(level)
        for n2 in range(lo + 1, n2_max + 1):
            m1[lo:, n2, 1 : hi + 1] = level[lo:, n2 - 1, :hi] + m1[lo:, n2 - 1, :hi]
        m2 = np.zeros_like(level)
        for n1 in range(lo + 1, n1_max + 1):
            m2[n1, lo:, 1 : hi + 1] = level[n1 - 1, lo:, :hi] + m2[n1 - 1, lo:, :hi]
        p = level + m1 + m2
        level = np.zeros_like(level)
        for n1 in range(1, n1_max + 1):
            level[n1, 1:] = p[n1 - 1, :n2_max] + level[n1 - 1, :n2_max]
        yield level


def synthesis_tables_by_step_pairs(n_max):
    """The exact entries of synthesis.pair_count_table(n) for n = 0 .. n_max, in order,
    one step-cost pair at a time.

    Each step adds every level slab d to slab d + a - b (mod 4), shifted by
    a + b in t and by one in s unless the new slab is d = 0, for all 16
    pairs (a, b) and all four d: 64 adds per step, with no symmetry used.
    """
    level = np.zeros((4, 8 * n_max + 1, n_max + 1), dtype=object)
    level[0, 0, 0] = 1
    for k in range(n_max + 1):
        yield level[:, : 8 * k + 1, : k + 1].copy()
        if k == n_max:
            return
        nxt = np.zeros_like(level)
        for a, b in synthesis._STEP_PAIRS:
            for d in range(4):
                miss = int((d + a - b) % 4 != 0)
                nxt[(d + a - b) % 4, a + b : 8 * k + 1 + a + b, miss : k + 1 + miss] += (
                    level[d, : 8 * k + 1, : k + 1]
                )
        level = nxt


def synthesis_table_by_step_pairs(n):
    """The exact entries of synthesis.pair_count_table(n), as synthesis_tables_by_step_pairs."""
    *_, entries = synthesis_tables_by_step_pairs(n)
    return entries


def full_band_step(add, level, nxt, k):
    """The level after k + 1 positions, summed into nxt from the whole band of level k.

    synthesis._step with every level summed on all of its 3k + 3 rows from
    q = k, so that no row comes from its mirror t -> 10k - t.
    """
    band = level[:, k : 4 * k + 3, : k + 1]
    add(band[:, 1:], band[:, :-1], out=band[:, 1:])
    u = add(band[1], band[1])
    add(u[1:], u[:-1], out=u[1:])
    w = add(band[0], band[2])
    add(w[1:], w[:-1], out=w[1:])
    v = band[:, : 3 * k + 2]
    for d, cross, lag, far in ((0, u, 2, v[2]), (1, w, 1, v[1]), (2, u, 2, v[0])):
        miss = int(d != 0)
        dst = nxt[d, k:, miss : k + 1 + miss]
        dst[1 : 3 * k + 3] = v[d]
        add(dst[3 : 3 * k + 5], v[d], out=dst[3 : 3 * k + 5])
        add(dst[lag : 3 * k + 3 + lag], cross, out=dst[lag : 3 * k + 3 + lag])
        for _ in range(2):
            add(dst[2 : 3 * k + 4], far, out=dst[2 : 3 * k + 4])


def synthesis_tables_by_full_band(ns, mode):
    """The entries of synthesis.pair_count_table(n, mode) for each n of the ascending ns,
    in order, from one run of full_band_step.

    The run has the kernel's buffers, summing form (chosen for the largest n),
    live limbs and carries, and converts each wanted level's whole band, so
    every entry is summed and none is copied from its mirror.
    """
    n_max = ns[-1]
    cm = synthesis.count_mode(mode)
    exact, linear = mode == "exact", 4 * n_max <= synthesis._LINEAR_LOG2_BITS
    shape = (3, 4 * n_max + 1, n_max + 1)
    if exact:
        limbs = 4 * n_max // synthesis._LIMB_BITS + 1
        level, nxt = (np.moveaxis(np.zeros((limbs, *shape), np.uint64), 0, -1) for _ in range(2))
        level[0, 0, 0, 0] = 1
    else:
        zero, one = (0.0, 1.0) if linear else (-math.inf, 0.0)
        level, nxt = np.full(shape, zero), np.full(shape, zero)
        level[0, 0, 0] = one
    add = np.add if exact or linear else np.logaddexp2
    for k in range(n_max + 1):
        if k in ns:
            final = level[:, k : 4 * k + 1, : k + 1]
            if exact:
                final = synthesis._limbs_to_ints(final)
            elif linear:
                with np.errstate(divide="ignore"):
                    final = np.log2(final)
            entries = cm.blank((4, 8 * k + 1, k + 1))
            for d in range(3):
                entries[d, 2 * k + d % 2 :: 2] = final[d, : 3 * k + 1 - d % 2]
            entries[3] = entries[1]
            yield entries
        if k == n_max:
            return
        if exact:
            live = (4 * k + 4) // synthesis._LIMB_BITS + 1
            full_band_step(add, level[..., :live], nxt[..., :live], k)
            if k % 2 == 1:
                synthesis._carry(nxt[:, k + 1 : 4 * k + 5, : k + 2, :live])
        else:
            full_band_step(add, level, nxt, k)
        level, nxt = nxt, level


def same_bits(a, b):
    """Whether two tables hold the same entries: equal ints, or floats equal bit for bit."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()


def assert_matches_exact(entries, exact, mode, log2_bound):
    """A synthesis table in `mode` against exact reference counts, all below 2^log2_bound.

    An exact table must be equal.  A log2 table must be log2 of the counts bit
    for bit while they are below 2^53, where every linear float64 sum is exact,
    and within 1e-12 of it above.
    """
    if mode == "exact":
        assert np.array_equal(entries, exact)
    elif log2_bound <= 53:
        assert np.array_equal(entries, log2_of(exact))
    else:
        assert worst_log2_error(entries, exact) <= 1e-12
