"""Comparisons of log2 pair-count tables with exact ones, shared by the kernel tests,
and slower or fuller reference kernels: both pair-count DPs, the synthesis brute-force
histogram, the sticky ball rate and the Newton solver, each in a plainer form that the
fast one must equal bit for bit."""

import math
from itertools import product

import numpy as np

from gvbound import acsv, numeric, sticky, synthesis


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


def synthesis_tables_by_full_band(ns, mode, cutoff):
    """The entries of synthesis.pair_count_table(n, mode) for each n of the ascending ns,
    in order, from one run of full_band_step, with synthesis._LINEAR_LOG2_BITS = cutoff.

    The run has the kernel's buffers, summing form (chosen for the largest n),
    live limbs and carries, and converts each wanted level's whole band, so
    every entry is summed and none is copied from its mirror.
    """
    n_max = ns[-1]
    cm = synthesis.count_mode(mode)
    exact, linear = mode == "exact", 4 * n_max <= cutoff
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


_FULL_BAND_TABLES = {}


def full_band_tables(mode, cutoff, sizes):
    """synthesis_tables_by_full_band(sizes, mode, cutoff) as a tuple, built once for the two
    tests that compare it: the second call takes it out of the cache, since the exact
    tables at n = 0..64 and 100 hold about 90 MB."""
    key = (mode, cutoff, tuple(sizes))
    if key in _FULL_BAND_TABLES:
        return _FULL_BAND_TABLES.pop(key)
    tables = _FULL_BAND_TABLES[key] = tuple(synthesis_tables_by_full_band(sizes, mode, cutoff))
    return tables


def synthesis_histogram_by_int64_keys(n):
    """synthesis._bruteforce_histogram(n) with int64 keys in blocks of 8 strands u."""
    strands = ["".join(w) for w in product(synthesis.ALPHABET, repeat=n)]
    times = np.array([synthesis.synthesis_time(w) for w in strands], dtype=np.int64)
    codes = np.frombuffer("".join(strands).encode("ascii"), dtype=np.uint8)
    columns = codes.reshape(len(strands), n).T
    width = n + 1
    flat = np.zeros((8 * n + 1) * width, dtype=np.int64)
    keys = times * width
    for start in range(0, len(strands), 8):
        rows = slice(start, start + 8)
        block = keys[rows, None] + keys
        for column in columns:
            block += column[rows, None] != column
        flat += np.bincount(block.ravel(), minlength=flat.size)
    return {divmod(int(k), width): int(flat[k]) for k in np.flatnonzero(flat)}


def log2_square_over(a, b):
    """log2(a^2 / b) for a, b > 0, also where the quotient underflows to 0."""
    q = a * a / b
    return math.log2(q) if q > 0.0 else 2.0 * math.log2(a) - math.log2(b)


def sticky_ball_rate_by_helpers(rho, beta):
    """sticky.ball_rate with every argument through numeric._real, the branch from
    sticky._ball_branch and each conjugate logarithm from log2_square_over."""
    rho = numeric._real(rho, "rho", numeric._ABOVE_0, numeric._BELOW_1)
    beta = numeric._real(beta, "beta", 0.0)
    branch = sticky._ball_branch(rho, beta)
    if branch == "diagonal":
        return numeric.entropy(rho)
    if branch == "saturated":
        return 2.0 * numeric.entropy(rho)
    root = math.hypot(rho, 2.0 * beta)
    return (
        -rho
        + 2.0 * beta * math.log2(2.0 * beta)
        - rho * log2_square_over(rho, root + 2.0 * beta)
        - 2.0 * beta * log2_square_over(2.0 * beta, root + rho)
        + (-1.0 + rho + beta) * math.log2(2.0 - 2.0 * rho - 2.0 * beta)
        + (1.0 - beta) * math.log2(2.0 - 2.0 * beta)
    )


def evaluate_by_powers(H, zv):
    """H at the float list zv, each power through acsv._power."""
    total = 0.0
    for exponents, coefficient in H.terms:
        term = coefficient
        for base, e in zip(zv, exponents):
            if e:
                term *= acsv._power(base, e)
        total += term
    return total


def residual_by_powers(H, rv, zv):
    """acsv.critical_system_residual at the float lists rv and zv, by evaluate_by_powers."""
    partials = [evaluate_by_powers(g, zv) for g in H.gradient]
    last = zv[-1] * partials[-1]
    return [evaluate_by_powers(H, zv)] + [
        rv[-1] * zj * pj - rj * last for zj, pj, rj in zip(zv[:-1], partials, rv)
    ]


def solve_by_full_evaluations(H, r, initial, solve):
    """(z, iterations) of acsv.solve_critical_point, with every second partial evaluated,
    d2H/dz_j dz_k and d2H/dz_k dz_j each in turn, the residual recomputed at each
    iterate, and each Newton step from solve(jacobian, rhs) on float lists."""
    rv = np.array(r, dtype=float)
    z = np.full(H.num_vars, 0.5) if initial is None else np.array(initial, dtype=float)

    def norm_at(zv):
        norms = [abs(c) for c in residual_by_powers(H, rv.tolist(), zv.tolist())]
        return math.nan if any(map(math.isnan, norms)) else max(norms)

    def jacobian(zv):
        values = zv.tolist()
        grad = np.array([evaluate_by_powers(g, values) for g in H.gradient])
        hess = np.array([[evaluate_by_powers(h, values) for h in row] for row in H.hessian])
        scaled = zv[:, None] * hess + np.diag(grad)
        return np.vstack((grad, rv[-1] * scaled[:-1] - np.outer(rv[:-1], scaled[-1])))

    norm = norm_at(z)
    iterations = 0
    while not norm <= acsv._SOLVE_TOL:
        assert iterations < acsv._MAX_NEWTON_ITER
        residual = residual_by_powers(H, rv.tolist(), z.tolist())
        step = np.array(solve(jacobian(z).tolist(), (-np.array(residual)).tolist()))
        scale = 1.0
        for _ in range(acsv._MAX_STEP_HALVINGS):
            candidate = z + scale * step
            if np.all(candidate > 0.0):
                cand_norm = norm_at(candidate)
                if cand_norm < norm or cand_norm <= acsv._SOLVE_TOL:
                    z, norm = candidate, cand_norm
                    break
            scale *= 0.5
        else:
            raise AssertionError(f"no residual-decreasing step at {z.tolist()}")
        iterations += 1
    return tuple(z.tolist()), iterations


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
