"""Self-check suites: oracle equivalence, mass identities, residuals.

Each suite returns a list of CheckResult records; the CLI renders them
as a pass/fail table.  Checks that would exceed the requested size
budget shrink to it rather than fail.  A GVBoundError raised inside one
check is reported as that check's failure without aborting the rest;
any other exception propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

from . import acsv, sticky, synthesis
from .errors import GVBoundError
from .numeric import binomial_exact, check_sizes, entropy

__all__ = ["CheckResult", "run_suite", "SUITES"]

# Bound of the two residual checks; each suite factory takes it as `tol`.
_RESIDUAL_TOL = 1e-9
_ARGMAX_GRID_POINTS = 512
_ARGMAX_ZOOMS = 4

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _run_checks(
    suite: str, checks: list[tuple[str, Callable[[], tuple[bool, str]]]]
) -> list[CheckResult]:
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except GVBoundError as exc:
            passed, detail = False, f"resource/domain error: {exc}"
        results.append(CheckResult(suite=suite, name=name, passed=passed, detail=detail))
    return results


# ----------------------------------------------------------------- acsv

def _acsv_checks(n_budget: int, tol: float) -> list[tuple[str, Callable]]:
    binomial = acsv.SparseMultivariatePolynomial(  # 1 - x - y, the binomial denominator
        2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)]
    )

    def binomial_direction() -> tuple[bool, str]:
        cp = acsv.solve_critical_point(binomial, (1.0, 1.0), initial=(0.3, 0.7))
        growth = acsv.growth_exponent(cp)
        err = max(abs(cp.z[0] - 0.5), abs(cp.z[1] - 0.5), abs(growth - 2.0))
        return err <= 1e-9, f"central binomial point error {err:.2e}"

    def residual_components() -> tuple[bool, str]:
        res = acsv.critical_system_residual(binomial, (1.0, 1.0), (0.4, 0.4))
        err = max(abs(res[0] - 0.2), abs(res[1] - 0.0))
        return err <= 1e-12, f"residual at (0.4,0.4) error {err:.2e}"

    def sticky_cross_solver() -> tuple[bool, str]:
        worst = 0.0
        H = sticky.pair_generating_denominator()
        for rho in (0.2, 0.3, 0.5):
            for delta in (0.1, 0.2, 0.3):
                cf = sticky.critical_point_closed_form(rho, delta)
                cp = acsv.solve_critical_point(H, (1.0, 1.0, rho, delta))
                worst = max(worst, *(abs(a - b) for a, b in zip(cp.z, cf.z)))
        return worst <= 1e-8, f"max coordinate gap {worst:.2e}"

    def synthesis_cross_solver() -> tuple[bool, str]:
        worst = 0.0
        H = synthesis.pair_generating_denominator()
        for tau in (1.5, 2.0):
            for delta in (0.1, 0.3):
                cf = synthesis.critical_point(tau, delta)
                cp = acsv.solve_critical_point(H, (1.0, 2.0 * tau, delta))
                worst = max(worst, *(abs(a - b) for a, b in zip(cp.z, cf.z)))
        return worst <= 1e-8, f"max coordinate gap {worst:.2e}"

    return [
        ("binomial-direction solve", binomial_direction),
        ("residual components", residual_components),
        ("sticky closed form vs solver", sticky_cross_solver),
        ("synthesis closed form vs solver", synthesis_cross_solver),
    ]


# ---------------------------------------------------------------- sticky

def _gv_numeric_argmax(beta: float) -> tuple[float, float]:
    """(value, rho) of a numeric argmax of 2 H(rho) - sticky.ball_rate(rho, beta).

    The check on the closed-form argmax of sticky.gv_rate.  Scans rho in
    (0,1), then rescans the two cells around the best point.
    """
    import numpy as np

    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(_ARGMAX_ZOOMS):
        grid = np.linspace(lo, hi, _ARGMAX_GRID_POINTS)
        values = [2.0 * entropy(float(g)) - sticky.ball_rate(float(g), beta) for g in grid]
        k = int(np.argmax(values))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    return values[k], float(grid[k])


def _sticky_checks(n_budget: int, tol: float) -> list[tuple[str, Callable]]:
    import numpy as np  # the grid checks; the suites build tables anyway

    n_oracle = min(n_budget, 8)

    def oracle_equivalence() -> tuple[bool, str]:
        compared = 0
        layers = list(
            sticky.iter_pair_layers(n_oracle, n_oracle, n_oracle, 2 * n_oracle, "exact")
        )
        for n1 in range(n_oracle + 1):
            for n2 in range(n_oracle + 1):
                for r in range(1, min(n1, n2) + 1):
                    for s in range(n1 + n2 + 1):
                        got = layers[r - 1].count(n1, n2, s)
                        want = sticky.count_pairs_bruteforce(n1, n2, r, s)
                        if got != want:
                            return False, (
                                f"mismatch at ({n1},{n2},{r},{s}): dp {got}, brute {want}"
                            )
                        compared += 1
        return True, f"{compared} buckets agree up to n={n_oracle}"

    def mass_identity() -> tuple[bool, str]:
        n = min(n_budget * 3, 24)
        for r, table in enumerate(
            sticky.iter_pair_layers(n, n, n, 2 * n, "exact"), start=1
        ):
            for m in range(r, n + 1):
                want = binomial_exact(m - 1, r - 1) ** 2
                got = table.total(m, m, 2 * m)
                if got != want:
                    return False, f"mass at (n={m}, r={r}): dp {got}, binomial {want}"
        return True, f"all (n,r) masses match up to n={n}"

    def symmetry() -> tuple[bool, str]:
        n1, n2 = min(n_budget, 7), min(n_budget, 7) - 1
        for r in range(1, n2 + 1):
            t12 = sticky.pair_count_table(n1, n2, r, n1 + n2, "exact")
            t21 = sticky.pair_count_table(n2, n1, r, n1 + n2, "exact")
            for s in range(n1 + n2 + 1):
                if t12.count(n1, n2, s) != t21.count(n2, n1, s):
                    return False, f"asymmetry at r={r}, s={s}"
        return True, f"N({n1},{n2},r,s) = N({n2},{n1},r,s) for all r,s"

    def confusable_oracle() -> tuple[bool, str]:
        words = list(sticky.compositions(6, 3))
        for b in (0, 1, 2):
            for u in words:
                for v in words:
                    if sticky.is_confusable(u, v, b) != sticky.confusable_bruteforce(u, v, b):
                        return False, f"disagreement at u={u.parts}, v={v.parts}, b={b}"
        return True, "L1 criterion matches enumeration on S(6,3), b in 0..2"

    def closed_form_residuals() -> tuple[bool, str]:
        worst = 0.0
        for rho in np.arange(0.1, 0.46, 0.05):
            for beta in np.arange(0.1, 0.46, 0.05):
                delta = 2.0 * float(beta)
                cp = sticky.critical_point_closed_form(float(rho), delta)
                worst = max(worst, cp.residual_norm)
        return worst <= tol, f"max closed-form residual {worst:.2e}"

    def dual_route() -> tuple[bool, str]:
        worst = 0.0
        for rho in np.arange(0.1, 0.46, 0.05):
            for beta in np.arange(0.05, 0.46, 0.05):
                rho_f, beta_f = float(rho), float(beta)
                if beta_f >= sticky.beta_max(rho_f):
                    continue
                via_cp = acsv.growth_exponent(
                    sticky.critical_point_closed_form(rho_f, 2.0 * beta_f)
                )
                worst = max(worst, abs(via_cp - sticky.ball_rate(rho_f, beta_f)))
        return worst <= 1e-9, f"max explicit-vs-critical-point gap {worst:.2e}"

    def knee_continuity() -> tuple[bool, str]:
        worst = 0.0
        for rho in (0.3, 0.5, 0.7):
            bm = sticky.beta_max(rho)
            below = sticky.ball_rate(rho, bm * (1.0 - 1e-9))
            worst = max(worst, abs(below - 2.0 * entropy(rho)))
        return worst <= 1e-8, f"max knee jump {worst:.2e}"

    def bound_ordering() -> tuple[bool, str]:
        for beta in np.arange(0.01, 0.25, 0.01):
            b = float(beta)
            lb = sticky.simple_lb_rate(b)
            gv, _ = sticky.gv_rate(b)
            sp = sticky.sp_rate(b)
            if not lb <= gv + 1e-12 or not gv <= sp + 1e-12:
                return False, f"ordering broken at beta={b:.2f}: {lb} / {gv} / {sp}"
        return True, "lb <= gv <= sp on beta in 0.01..0.24"

    def gv_argmax() -> tuple[bool, str]:
        worst = max(
            abs(_gv_numeric_argmax(b)[0] - sticky.gv_rate(b)[0])
            for b in (0.01 * k for k in range(1, 50))
        )
        return worst <= 1e-12, f"max rate gap {worst:.2e} on beta in 0.01..0.49"

    return [
        ("pair-count oracle equivalence", oracle_equivalence),
        ("pair mass identity", mass_identity),
        ("pair-count symmetry", symmetry),
        ("confusability oracle", confusable_oracle),
        ("closed-form residuals", closed_form_residuals),
        ("explicit vs critical-point rate", dual_route),
        ("knee continuity", knee_continuity),
        ("bound ordering", bound_ordering),
        ("closed-form GV argmax vs numeric argmax", gv_argmax),
    ]


# ------------------------------------------------------------- synthesis

def _alternating_prefix(length: int) -> str:
    reps = -(-length // 4)
    return (synthesis.ALPHABET * reps)[:length]


def _is_subsequence(word: str, sup: str) -> bool:
    it = iter(sup)
    return all(ch in it for ch in word)


def _synthesis_checks(n_budget: int, tol: float) -> list[tuple[str, Callable]]:
    import numpy as np  # the grid checks; the suites build tables anyway

    n_oracle = min(n_budget, 5)

    def oracle_equivalence() -> tuple[bool, str]:
        for n in range(n_oracle + 1):
            table = synthesis.pair_count_table(n, "exact")
            for t in range(8 * n + 1):
                for s in range(n + 1):
                    got = table.count(t, s)
                    want = synthesis.count_pairs_bruteforce(n, t, s)
                    if got != want:
                        return False, f"mismatch at (n={n},t={t},s={s}): dp {got}, brute {want}"
        return True, f"all buckets agree up to n={n_oracle}"

    def pair_mass() -> tuple[bool, str]:
        n = min(n_budget + 4, 12)
        got = synthesis.pair_count_table(n, "exact").total(8 * n, n)
        want = 16 ** n
        return got == want, f"n={n}: dp {got}, expected {want}"

    def word_mass() -> tuple[bool, str]:
        n = min(n_budget * 3, 30)
        got = sum(synthesis.count_words_by_time(n))
        return got == 4 ** n, f"n={n}: dp {got}, expected {4 ** n}"

    def time_bounds() -> tuple[bool, str]:
        n = min(n_budget, 6)
        for w in map("".join, product(synthesis.ALPHABET, repeat=n)):
            t = synthesis.synthesis_time(w)
            if not n <= t <= 4 * n:
                return False, f"time {t} outside [{n}, {4 * n}] for {w}"
        return True, f"n <= time <= 4n over all 4^{n} strands"

    def producibility() -> tuple[bool, str]:
        n = min(n_budget, 5)
        for w in map("".join, product(synthesis.ALPHABET, repeat=n)):
            t = synthesis.synthesis_time(w)
            for budget in (t - 1, t, 4 * n):
                via_time = t <= budget
                via_subseq = _is_subsequence(w, _alternating_prefix(budget))
                if via_time != via_subseq:
                    return False, f"{w}: time test {via_time}, subsequence test {via_subseq}"
        return True, f"time criterion matches supersequence test up to n={n}"

    def critical_residuals() -> tuple[bool, str]:
        worst = 0.0
        for tau in (1.5, 2.0):
            dm, _ = synthesis.delta_max(tau)
            for delta in np.arange(0.05, dm, 0.05):
                cp = synthesis.critical_point(tau, float(delta))
                worst = max(worst, cp.residual_norm)
        return worst <= tol, f"max residual {worst:.2e}"

    def saturation_point() -> tuple[bool, str]:
        worst = 0.0
        for tau in (1.5, 2.0, 2.25):
            dm, _ = synthesis.delta_max(tau)
            cp = synthesis.critical_point(tau, dm)
            worst = max(worst, abs(cp.z[-1] - 1.0))
        return worst <= 1e-6, f"max |z - 1| at delta_max {worst:.2e}"

    def piecewise_continuity() -> tuple[bool, str]:
        worst = 0.0
        for tau in (1.5, 2.0, 2.25):
            dm, _ = synthesis.delta_max(tau)
            below = synthesis.ball_rate_upper(tau, dm * (1.0 - 1e-9))
            worst = max(worst, abs(below - 2.0 * synthesis.capacity(tau)))
        high = abs(
            synthesis.ball_rate_upper(3.0, 0.75 - 1e-12)
            - synthesis.ball_rate_upper(3.0, 0.75)
        )
        worst = max(worst, high)
        return worst <= 1e-6, f"max branch jump {worst:.2e}"

    def capacity_shape() -> tuple[bool, str]:
        taus = [1.1, 1.5, 2.0, 2.4, 2.5, 3.0, 4.0]
        values = [synthesis.capacity(t) for t in taus]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            return False, f"capacity not nondecreasing: {values}"
        if any(abs(synthesis.capacity(t) - 2.0) > 1e-12 for t in (2.5, 3.0, 4.0)):
            return False, "capacity differs from 2 beyond tau = 5/2"
        return True, "nondecreasing, constant 2 from tau = 5/2 on"

    def capacity_dp_anchor() -> tuple[bool, str]:
        n = 100
        count = synthesis.count_words_exact(n, 2 * n)
        rate = math.log2(count) / n
        gap = abs(synthesis.capacity(2.0) - rate)
        return gap <= 0.1, f"|Cap(2) - log2|S({n},<=2n)||/{n}| = {gap:.4f}"

    return [
        ("pair-count oracle equivalence", oracle_equivalence),
        ("pair mass identity", pair_mass),
        ("word mass identity", word_mass),
        ("synthesis-time bounds", time_bounds),
        ("producibility criterion", producibility),
        ("critical-point residuals", critical_residuals),
        ("saturation z = 1", saturation_point),
        ("piecewise continuity", piecewise_continuity),
        ("capacity shape", capacity_shape),
        ("capacity DP anchor", capacity_dp_anchor),
    ]


SUITES = {
    "acsv": _acsv_checks,
    "sticky": _sticky_checks,
    "synthesis": _synthesis_checks,
}


def run_suite(suite: str, n_budget: int = 8) -> list[CheckResult]:
    """Run one named suite, or all of them, and collect the results;
    DomainError unless n_budget is an integer >= 1.
    """
    if suite != "all" and suite not in SUITES:
        raise GVBoundError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    check_sizes(at_least=1, n_budget=n_budget)
    results = []
    for name in SUITES if suite == "all" else (suite,):
        results.extend(_run_checks(name, SUITES[name](n_budget, _RESIDUAL_TOL)))
    return results
