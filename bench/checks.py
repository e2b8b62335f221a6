"""Output checks for benchmark operations.

Every function returns a list of problems; an empty list means the
operation's output is correct.  Nothing here imports gvbound: reference
outputs are stored bytes, and the invariants are computed from first
principles (numpy eigenvalue root finding instead of the package's grid
scan and bisection, binomial identities instead of the DPs).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TOL = 1e-9
ORDER_TOL = 1e-12
# Points this close to a flag threshold are not judged: both sides of the
# threshold are legitimate within floating-point rounding.
THRESHOLD_GUARD = 1e-6
LOG2_3 = math.log2(3.0)


def entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _smallest_positive_root(coeffs_ascending) -> float:
    roots = P.polyroots(np.asarray(coeffs_ascending, dtype=float))
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0]
    return min(real)


def synthesis_capacity(tau: float) -> float:
    """Capacity from the positive root of the characteristic cubic."""
    if tau >= 2.5:
        return 2.0
    y = _smallest_positive_root([1.0 - tau, 2.0 - tau, 3.0 - tau, 4.0 - tau])
    x = 1.0 / (y + y ** 2 + y ** 3 + y ** 4)
    return -math.log2(x) - tau * math.log2(y)


def synthesis_delta_max(tau: float) -> float:
    """Saturating distance density: the delta where the z coordinate is 1."""
    g = P.polymul([1, 0, 1], [1, 0, 0, 0, 1])
    b0 = [1, 0, 2, 0, 3, 0, 4]
    c = P.polymul([1, 0, 0, 0, -1], [1, 2, 4, 2, 1])
    d = [1, 2, 2, 2, 1]
    lhs = P.polymul(d, P.polysub(tau * g, b0))
    y = _smallest_positive_root(P.polysub(lhs, P.polymulx(c)))
    return 2.0 * y * (1.0 + y + y * y) / P.polyval(y, d)


# ------------------------------------------------------------ CLI outputs

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = [line.split(",") for line in lines[:-1]]
    return rows[0], rows[1:]


def _check_grid(xs: list[float], sweep: dict) -> list[str]:
    steps, lo, hi = sweep["steps"], sweep["lo"], sweep["hi"]
    if len(xs) != steps:
        return [f"{len(xs)} rows, expected {steps}"]
    step = (hi - lo) / (steps - 1)
    worst = max(abs(x - (lo + k * step)) for k, x in enumerate(xs))
    return [] if worst <= TOL else [f"sweep grid off by {worst:.3e}"]


def check_sticky_sweep(path: Path, sweep: dict) -> list[str]:
    """lb <= gv <= sp, and the flags match their thresholds."""
    header, rows = _read_csv(path)
    if header != ["beta", "gv", "sp", "lb", "flags"]:
        return [f"unexpected header {header}"]
    xs = [float(r[0]) for r in rows]
    problems = _check_grid(xs, sweep)
    for row in rows:
        beta, gv, sp, lb = (float(v) for v in row[:4])
        flags = set(filter(None, row[4].split(";")))
        where = f"beta={row[0]}"
        if not lb <= gv + ORDER_TOL or not gv <= sp + ORDER_TOL:
            problems.append(f"{where}: lb {lb} <= gv {gv} <= sp {sp} broken")
        want = set()
        if gv == 0.0 and beta > 0.0:
            want.add("gv:saturated")
        if beta >= 0.25:
            want.add("lb:boundary")
        if abs(beta - 0.25) < THRESHOLD_GUARD:
            flags.discard("lb:boundary")
            want.discard("lb:boundary")
        if flags != want:
            problems.append(f"{where}: flags {sorted(flags)}, expected {sorted(want)}")
    return problems


def check_synthesis_sweep(path: Path, sweep: dict) -> list[str]:
    """0 <= gv <= 2*capacity, lb is the floored crude bound, flags match.

    Written for tau < 2.5, the constrained regime every workload sweeps.
    """
    if sweep["tau"] >= 2.5:
        return [f"no sweep invariants for tau = {sweep['tau']} >= 2.5"]
    header, rows = _read_csv(path)
    if header[0] != "delta" or header[-1] != "flags":
        return [f"unexpected header {header}"]
    cols = header[1:-1]
    xs = [float(r[0]) for r in rows]
    problems = _check_grid(xs, sweep)
    tau = sweep["tau"]
    cap = synthesis_capacity(tau)
    dm = synthesis_delta_max(tau)
    for row in rows:
        delta = float(row[0])
        values = dict(zip(cols, (float(v) for v in row[1:-1])))
        flags = set(filter(None, row[-1].split(";")))
        where = f"tau={tau} delta={row[0]}"
        near_knee = abs(delta - dm) < THRESHOLD_GUARD
        want = set()
        if "capacity" in values and abs(values["capacity"] - cap) > TOL:
            problems.append(f"{where}: capacity {values['capacity']}, expected {cap}")
        if "gv" in values:
            gv = values["gv"]
            if not 0.0 <= gv <= 2.0 * cap + ORDER_TOL:
                problems.append(f"{where}: gv {gv} outside [0, 2*capacity]")
            want.add("gv:upper-bound")
            if delta >= dm:
                want.add("gv:saturated")
            if not near_knee and (gv == 0.0) != (delta >= dm):
                problems.append(f"{where}: gv {gv} but delta_max {dm}")
            if near_knee:
                flags -= {"gv:saturated", "gv:floored"}
                want.discard("gv:saturated")
        if "lb" in values:
            raw = cap - entropy(delta) - delta * LOG2_3
            if abs(values["lb"] - max(raw, 0.0)) > TOL:
                problems.append(f"{where}: lb {values['lb']}, expected {max(raw, 0.0)}")
            if raw < 0.0:
                want.add("lb:floored")
            if abs(raw) < THRESHOLD_GUARD:
                flags.discard("lb:floored")
                want.discard("lb:floored")
        if flags != want:
            problems.append(f"{where}: flags {sorted(flags)}, expected {sorted(want)}")
    return problems


def _check_sweep_file(path: Path, sweep: dict) -> list[str]:
    if sweep["channel"] == "sticky":
        return check_sticky_sweep(path, sweep)
    return check_synthesis_sweep(path, sweep)


def check_verify_output(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines:
        return ["no output"]
    failed = [line for line in lines[:-1] if not line.startswith("PASS")]
    problems = [f"check not passed: {line}" for line in failed]
    head = lines[-1].split(" ", 1)[0]
    ok, _, total = head.partition("/")
    if not lines[-1].endswith("checks passed") or ok != total:
        problems.append(f"summary line {lines[-1]!r}")
    return problems


def check_cli_op(op: dict, workdir: Path, rc: int, stdout: str) -> list[str]:
    """Problems with one CLI operation's exit code and outputs."""
    if rc != 0:
        return [f"exit code {rc}"]
    check = op["check"]
    kind = check["kind"]
    try:
        if kind == "reference_stdout":
            want = (REFERENCE_DIR / check["file"]).read_text()
            return [] if stdout == want else ["stdout differs from the reference"]
        if kind == "verify":
            return check_verify_output(stdout)
        out = workdir / check["file"]
        problems = []
        if kind == "reference_file":
            if out.read_bytes() != (REFERENCE_DIR / check["file"]).read_bytes():
                problems.append(f"{check['file']} differs from the reference")
        if "sweep" in check:
            problems += _check_sweep_file(out, check["sweep"])
        return problems
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------- DP counts

def check_sticky_masses(r: int, masses: list[int]) -> list[str]:
    """masses[m] is the layer-r total over all s at (m, m), for m >= 1."""
    for m, got in enumerate(masses):
        if m == 0:
            continue
        want = math.comb(m - 1, r - 1) ** 2
        if got != want:
            return [f"sticky mass at (n={m}, r={r}): dp {got}, binomial {want}"]
    return []


def check_log2_matches_exact(log2_values: np.ndarray, exact: np.ndarray,
                             where: str) -> list[str]:
    """log2 entries equal log2 of the exact counts, -inf for zero counts."""
    flat_exact = exact.reshape(-1).tolist()
    flat_log2 = np.asarray(log2_values, dtype=float).reshape(-1)
    if len(flat_exact) != flat_log2.size:
        return [f"{where}: shapes differ"]
    worst = 0.0
    for e, v in zip(flat_exact, flat_log2.tolist()):
        if e == 0:
            if v != -math.inf:
                return [f"{where}: zero count has log2 entry {v}"]
            continue
        worst = max(worst, abs(math.log2(e) - v))
    return [] if worst <= TOL else [f"{where}: log2 off by {worst:.3e}"]


def _hamming_marginal(n: int, s: int) -> int:
    """Ordered strand pairs of length n at Hamming distance s."""
    return 4 ** n * math.comb(n, s) * 3 ** s


def _time_marginal(n: int) -> list[int]:
    """Ordered strand pairs of length n by combined synthesis time."""
    words = [1]
    for _ in range(n):
        nxt = [0] * (len(words) + 4)
        for t, c in enumerate(words):
            for cost in range(1, 5):
                nxt[t + cost] += c
        words = nxt
    return [int(v) for v in np.convolve(np.array(words, dtype=object),
                                        np.array(words, dtype=object))]


def check_synthesis_exact(n: int, by_s: list[int], by_t: list[int]) -> list[str]:
    """Mass 16^n, split by distance and by combined time."""
    problems = []
    if sum(by_s) != 16 ** n:
        problems.append(f"synthesis mass at n={n}: dp {sum(by_s)}, expected 16^{n}")
    want_s = [_hamming_marginal(n, s) for s in range(n + 1)]
    if by_s != want_s:
        problems.append(f"synthesis distance marginal at n={n} differs")
    want_t = _time_marginal(n)
    if by_t[: len(want_t)] != want_t or any(by_t[len(want_t):]):
        problems.append(f"synthesis time marginal at n={n} differs")
    return problems


def check_synthesis_log2(n: int, by_s: list[float]) -> list[str]:
    """log2 distance marginals and log2 total mass 4n."""
    want = [math.log2(_hamming_marginal(n, s)) for s in range(n + 1)]
    worst = max(abs(a - b) for a, b in zip(by_s, want))
    total = float(np.logaddexp2.reduce(np.asarray(by_s)))
    worst = max(worst, abs(total - 4.0 * n))
    if len(by_s) != n + 1 or worst > TOL:
        return [f"synthesis log2 marginals at n={n} off by {worst:.3e}"]
    return []
