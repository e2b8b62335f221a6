"""Acceptance gate: one test per shipped guarantee.

Each test is self-contained and prints one pass/fail line under
pytest -v.  Tolerances and runtime budgets are part of the guarantee
and are asserted, not just measured.
"""

import math
import time

import pytest

from gvbound import cli, sticky, synthesis
from gvbound.numeric import binomial_exact, entropy
from gvbound.sticky import (
    _gv_closed_form_rho,
    _gv_objective,
)
from gvbound.verify import _gv_numeric_argmax


def test_criterion_01_sticky_oracle_equivalence():
    """Lattice pair counts equal brute-force enumeration for n1, n2 <= 8."""
    start = time.monotonic()
    for n1 in range(0, 9):
        for n2 in range(0, 9):
            for r in range(0, min(n1, n2) + 1):
                for s in range(0, n1 + n2 + 1):
                    expected = sticky.count_pairs_bruteforce(n1, n2, r, s)
                    assert sticky.count_pairs_exact(n1, n2, r, s) == expected, (
                        n1,
                        n2,
                        r,
                        s,
                    )
    assert time.monotonic() - start <= 60.0


def test_criterion_02_synthesis_oracle_equivalence():
    """Strand pair counts equal brute-force enumeration for n <= 5."""
    start = time.monotonic()
    for n in range(0, 6):
        for t in range(0, 8 * n + 1):
            for s in range(0, n + 1):
                expected = synthesis.count_pairs_bruteforce(n, t, s)
                assert synthesis.count_pairs_exact(n, t, s) == expected, (n, t, s)
    assert time.monotonic() - start <= 60.0


def test_criterion_03_mass_identities():
    """Distance-summed pair counts recover the squared space sizes exactly."""
    n_max = 60
    for table in sticky.iter_pair_layers(n_max, n_max, n_max, 2 * n_max, "exact"):
        r = table.r
        for n in range(r, n_max + 1):
            mass = sum(table.entries[n, n, :].tolist())
            assert mass == binomial_exact(n - 1, r - 1) ** 2, (n, r)
    for n in range(0, 21):
        table = synthesis.pair_count_table(n)
        assert table.total(8 * n, n) == 16**n, n


def test_criterion_04_closed_form_residuals():
    """Closed-form critical points satisfy their defining systems to 1e-9."""
    grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    for rho in grid:
        for beta in grid:
            cp = sticky.critical_point_closed_form(rho, 2.0 * beta)
            assert cp.residual_norm <= 1e-9, (rho, beta)
    for tau in (1.5, 2.0):
        dm, _ = synthesis.delta_max(tau)
        delta = 0.05
        while delta < dm:
            cp = synthesis.critical_point(tau, delta)
            assert cp.residual_norm <= 1e-9, (tau, delta)
            delta += 0.05


def test_criterion_05_dual_route_agreement():
    """The explicit ball-rate formula matches the critical-point growth.

    Below the knee both routes are live and must agree to 1e-9; at and
    beyond the knee the rate is the constant 2 H(rho) by definition.
    """
    grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    for rho in grid:
        for beta in grid:
            direct = sticky.ball_rate(rho, beta)
            if beta < sticky.beta_max(rho):
                cp = sticky.critical_point_closed_form(rho, 2.0 * beta)
                growth = (
                    -2.0 * math.log2(cp.z[0])
                    - rho * math.log2(cp.z[2])
                    - 2.0 * beta * math.log2(cp.z[3])
                )
                assert abs(direct - growth) <= 1e-9, (rho, beta)
            else:
                assert abs(direct - 2.0 * entropy(rho)) <= 1e-9, (rho, beta)


def test_criterion_06_rate_convergence():
    """Exact pair counts converge to their smooth-point leading term.

    At (rho, delta) = (0.5, 0.25) and n in {16, 24, 32, 40, 48}, the raw
    gap |log2(count_n)/n - ball_rate| must decrease strictly, and the
    exact count must match the leading term L_n (polynomial factor and
    Hessian constant included) as count_n / L_n = 1 + O(1/n), asserted
    as |count_n / L_n - 1| <= 3/n at every n.  The raw gap itself is
    about (1.5 log2 n + 1.15)/n (0.199 at n = 48), the subexponential
    factor that the rate omits, so it is not bounded by a constant here.
    """
    start = time.monotonic()
    target = sticky.ball_rate(0.5, 0.125)
    gaps = []
    ratios = []
    for n in (16, 24, 32, 40, 48):
        log2_count = float(sticky.count_pairs_exact(n, n, n // 2, n // 4, mode="log2"))
        gaps.append(abs(log2_count / n - target))
        ratios.append((n, 2.0 ** (log2_count - sticky.leading_pair_count_log2(n, 0.5, 0.25))))
    for earlier, later in zip(gaps, gaps[1:]):
        assert later < earlier, gaps
    assert time.monotonic() - start <= 300.0
    for n, ratio in ratios:
        assert abs(ratio - 1.0) <= 3.0 / n, (
            f"count_n / L_n = {ratio:.6f} at n={n} is not within 3/n of 1 "
            f"(ratios {[(m, round(q, 6)) for m, q in ratios]})"
        )


def test_criterion_07_capacity_anchors():
    """Capacity hits 2 exactly at tau = 5/2 and tracks the n = 100 count."""
    assert abs(synthesis.capacity(2.5) - 2.0) <= 1e-9
    count = synthesis.count_words_exact(100, 200)
    finite = math.log2(count) / 100
    assert abs(finite - synthesis.capacity(2.0)) <= 0.1


def test_criterion_08_curve_regeneration(tmp_path):
    """The curve command writes both bound-curve families as CSV and SVG."""
    # duplication channel: gv, sp, lb over beta in [0, 0.49]
    csv_sticky = tmp_path / "sticky_bounds.csv"
    code = cli.main(
        [
            "curve",
            "--channel",
            "sticky",
            "--beta-range",
            "0:0.49:50",
            "--output",
            str(csv_sticky),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in csv_sticky.read_text().splitlines()]
    assert rows[0] == ["beta", "gv", "sp", "lb", "flags"]
    for cells in rows[1:]:
        beta, gv, sp, lb = (float(c) for c in cells[:4])
        assert lb <= gv + 1e-12, beta
        assert gv <= sp + 1e-12, beta
        assert gv > 0.0, beta
    svg1 = tmp_path / "sticky_bounds.svg"
    code = cli.main(
        [
            "curve",
            "--channel",
            "sticky",
            "--beta-range",
            "0:0.49:50",
            "--format",
            "svg",
            "--output",
            str(svg1),
        ]
    )
    assert code == 0
    assert svg1.read_text().startswith("<svg")

    # synthesis channel: gv vs lb at tau = 1.5 and tau = 2.0
    for tau in (1.5, 2.0):
        dm, _ = synthesis.delta_max(tau)
        csv_syn = tmp_path / f"synthesis_bounds_tau{tau}.csv"
        code = cli.main(
            [
                "curve",
                "--channel",
                "synthesis",
                "--tau",
                str(tau),
                "--delta-range",
                "0:0.75:76",
                "--output",
                str(csv_syn),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in csv_syn.read_text().splitlines()]
        assert rows[0] == ["delta", "gv", "lb", "flags"]
        for cells in rows[1:]:
            delta, gv, lb = (float(c) for c in cells[:3])
            assert lb <= gv + 1e-12, (tau, delta)
            saturated = delta >= dm - 1e-12
            assert (gv == 0.0) == saturated, (tau, delta, gv)
        svg3 = tmp_path / f"synthesis_bounds_tau{tau}.svg"
        code = cli.main(
            [
                "curve",
                "--channel",
                "synthesis",
                "--tau",
                str(tau),
                "--delta-range",
                "0:0.75:76",
                "--format",
                "svg",
                "--output",
                str(svg3),
            ]
        )
        assert code == 0
        assert svg3.read_text().startswith("<svg")


def test_criterion_09_knee_continuity_and_stationarity():
    """Ball rates cross their saturation knees without jumps or slope."""
    for rho in (0.3, 0.5, 0.7):
        bm = sticky.beta_max(rho)
        below = sticky.ball_rate(rho, bm - 1e-9)
        above = sticky.ball_rate(rho, bm + 1e-9)
        assert abs(below - above) <= 1e-6, rho
        h = 1e-7
        slope = (sticky.ball_rate(rho, bm) - sticky.ball_rate(rho, bm - h)) / h
        assert abs(slope) <= 1e-5, (rho, slope)
    for tau in (1.5, 2.0, 2.25):
        dm, _ = synthesis.delta_max(tau)
        below = synthesis.ball_rate_upper(tau, dm - 1e-9)
        above = synthesis.ball_rate_upper(tau, dm + 1e-9)
        assert abs(below - above) <= 1e-6, tau


def test_criterion_10_argmax_sign_agreement():
    """The numeric rate argmax confirms the minus-sign closed form."""
    for k in range(1, 10):
        beta = 0.05 * k
        rho_cf = _gv_closed_form_rho(beta)
        val_cf = _gv_objective(rho_cf, beta)
        val_num, _ = _gv_numeric_argmax(beta)
        assert abs(val_num - val_cf) <= 1e-6, (beta, val_cf, val_num)
    _, rho_num = _gv_numeric_argmax(0.0)
    assert abs(rho_num - 0.5) <= 1e-6
