"""Tests for the self-check suites."""

import numpy as np
import pytest

from gvbound import acsv, cli, sticky, synthesis, verify
from gvbound.errors import DomainError, GVBoundError, SizeLimitError
from gvbound.verify import CheckResult, run_suite


def test_sticky_suite_passes_with_reduced_budget():
    results = run_suite("sticky", n_budget=4)
    assert results
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.suite == "sticky" for r in results)
    failed = [r for r in results if not r.passed]
    assert failed == [], [f"{r.name}: {r.detail}" for r in failed]


def test_all_runs_every_suite():
    results = run_suite("all", n_budget=2)
    suites = {r.suite for r in results}
    assert suites == {"acsv", "sticky", "synthesis"}
    assert all(r.passed for r in results), [
        f"{r.name}: {r.detail}" for r in results if not r.passed
    ]


def test_unknown_suite_is_rejected():
    with pytest.raises(GVBoundError):
        run_suite("bogus")


def test_results_carry_detail_strings():
    results = run_suite("acsv")
    for r in results:
        assert r.name
        assert r.detail


@pytest.mark.parametrize("n_budget", [0, -3, 2.5])
def test_budget_below_one_or_fractional_is_rejected(n_budget):
    with pytest.raises(DomainError, match="n_budget"):
        run_suite("sticky", n_budget=n_budget)


@pytest.mark.parametrize("n_budget", ["0", "-3"])
def test_cli_rejects_budget_below_one(capsys, n_budget):
    assert cli.main(["verify", "sticky", "--n-budget", n_budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_budget must be >= 1, got {n_budget}\n"


def test_gv_argmax_check_fails_for_a_perturbed_closed_form(monkeypatch):
    # a relative error of 1e-5 in rho moves the rate by about 7e-11, which
    # the numeric argmax must resolve against its 1e-12 bound
    closed_form_rho = sticky._gv_closed_form_rho
    monkeypatch.setattr(
        sticky, "_gv_closed_form_rho", lambda beta: closed_form_rho(beta) * (1.0 + 1e-5)
    )
    checks = dict(verify._sticky_checks(8, verify._RESIDUAL_TOL))
    passed, detail = checks["closed-form GV argmax vs numeric argmax"]()
    assert not passed, detail


def test_gv_numeric_argmax_scans_all_of_0_1_and_brackets_its_rho_within_6_3e_11(monkeypatch):
    evaluated = []
    ball_rate = sticky.ball_rate

    def recorded(rho, beta):
        evaluated.append(rho)
        return ball_rate(rho, beta)

    monkeypatch.setattr(sticky, "ball_rate", recorded)
    value, rho = verify._gv_numeric_argmax(0.1)
    assert evaluated[:512] == np.linspace(1e-9, 1.0 - 1e-9, 512).tolist()
    assert len(evaluated) <= 552  # 832 with five 64-point zooms
    # the final bracket's ends are the evaluated points nearest rho on
    # each side, and rho beats both, so the unimodal objective peaks
    # inside; the five zooms ended at a spacing of 6.26e-11
    lo = max(x for x in evaluated if x < rho)
    hi = min(x for x in evaluated if x > rho)
    assert hi - lo <= 6.3e-11
    assert value >= max(sticky._gv_objective(x, 0.1) for x in (lo, hi))
    assert abs(value - sticky.gv_rate(0.1)[0]) <= 1e-12


def test_a_check_that_raises_fails_its_row_and_the_rest_still_run(monkeypatch):
    def refuse(n):
        raise SizeLimitError("word counts refused")

    monkeypatch.setattr(synthesis, "count_words_by_time", refuse)
    results = {r.name: r for r in run_suite("synthesis", n_budget=2)}
    refused = {"word mass identity", "capacity DP anchor"}
    assert len(results) == 10
    for name, result in results.items():
        if name in refused:
            assert result.detail == "resource/domain error: word counts refused"
        assert result.passed == (name not in refused), (name, result.detail)


def _off_by_one_at(count, bucket):
    return lambda *args: count(*args) + (args == bucket)


def test_sticky_oracle_check_fails_for_one_bucket_off_by_one(monkeypatch):
    brute = _off_by_one_at(sticky.count_pairs_bruteforce, (3, 3, 2, 2))
    monkeypatch.setattr(sticky, "count_pairs_bruteforce", brute)
    checks = dict(verify._sticky_checks(4, verify._RESIDUAL_TOL))
    passed, detail = checks["pair-count oracle equivalence"]()
    assert not passed
    assert detail.startswith("mismatch at (3,3,2,2): "), detail


def test_synthesis_oracle_check_fails_for_one_bucket_off_by_one(monkeypatch):
    brute = _off_by_one_at(synthesis.count_pairs_bruteforce, (2, 8, 1))
    monkeypatch.setattr(synthesis, "count_pairs_bruteforce", brute)
    checks = dict(verify._synthesis_checks(2, verify._RESIDUAL_TOL))
    passed, detail = checks["pair-count oracle equivalence"]()
    assert not passed
    assert detail.startswith("mismatch at (n=2,t=8,s=1): "), detail


def test_sticky_mass_check_fails_for_one_table_entry_off_by_one(monkeypatch):
    layers = sticky.iter_pair_layers

    def off_by_one(*args):
        for table in layers(*args):
            if table.r == 2:
                table.entries[5, 5, 2] += 1
            yield table

    monkeypatch.setattr(sticky, "iter_pair_layers", off_by_one)
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    assert checks["pair mass identity"]() == (False, "mass at (n=5, r=2): table 17, binomial 16")


@pytest.mark.parametrize("module, name, suite, row", [
    (sticky, "critical_point_closed_form", verify._acsv_checks, "sticky closed form vs solver"),
    (synthesis, "critical_point", verify._acsv_checks, "synthesis closed form vs solver"),
    (sticky, "critical_point_closed_form", verify._sticky_checks, "closed-form residuals"),
    (synthesis, "critical_point", verify._synthesis_checks, "critical-point residuals"),
])
def test_closed_form_checks_fail_for_an_x_off_by_1e_6(monkeypatch, module, name, suite, row):
    checks = dict(suite(2, verify._RESIDUAL_TOL))
    assert checks[row]()[0]
    closed_form = getattr(module, name)

    def shifted(*args):
        cp = closed_form(*args)
        return acsv.CriticalPoint.at(cp.H, cp.direction, (cp.z[0] + 1e-6, *cp.z[1:]))

    monkeypatch.setattr(module, name, shifted)
    passed, detail = checks[row]()
    assert not passed, detail

def test_dual_route_check_fails_for_a_ball_rate_off_by_1e_8(monkeypatch):
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    assert checks["explicit vs critical-point rate"]()[0]
    ball_rate = sticky.ball_rate
    monkeypatch.setattr(sticky, "ball_rate", lambda rho, beta: ball_rate(rho, beta) + 1e-8)
    passed, detail = checks["explicit vs critical-point rate"]()
    assert not passed
    assert detail == "max explicit-vs-critical-point gap 1.00e-08", detail


def test_direct_sum_check_fails_for_one_sum_off_by_one(monkeypatch):
    direct = _off_by_one_at(sticky.count_pairs_exact, (3, 3, 2, 2))
    monkeypatch.setattr(sticky, "count_pairs_exact", direct)
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    passed, detail = checks["pair tables vs direct sums"]()
    want = sticky.pair_count_table(3, 3, 2, 2).count(3, 3, 2)
    assert (passed, detail) == (False, f"mismatch at (3,3,2,2): table {want}, sum {want + 1}")


def test_direct_sum_check_fails_for_a_count_off_the_support(monkeypatch):
    layers = sticky.iter_pair_layers

    def off_support(*args):
        for table in layers(*args):
            if table.r == 2:
                table.entries[5, 5, 1] = 1  # n1 + n2 - s is odd: no pair lies there
            yield table

    monkeypatch.setattr(sticky, "iter_pair_layers", off_support)
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    passed, detail = checks["pair tables vs direct sums"]()
    assert (passed, detail) == (False, "layer r=2 is nonzero where the sum is 0")


def test_symmetry_check_fails_for_one_entry_off_by_one(monkeypatch):
    table_at = sticky.pair_count_table

    def skewed(n1, n2, r, s_max, mode):
        table = table_at(n1, n2, r, s_max, mode)
        if (n1, n2, r) == (4, 3, 2):
            table.entries[4, 3, 3] += 1
        return table

    monkeypatch.setattr(sticky, "pair_count_table", skewed)
    checks = dict(verify._sticky_checks(4, verify._RESIDUAL_TOL))
    assert checks["pair-count symmetry"]() == (False, "asymmetry at r=2, s=3")


def test_confusability_check_fails_for_a_strict_l1_criterion(monkeypatch):
    # L1 < 2b misses every pair at L1 = 2b, first u = v at b = 0
    monkeypatch.setattr(sticky, "is_confusable", lambda u, v, b: sticky.l1_distance(u, v) < 2 * b)
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    passed, detail = checks["confusability oracle"]()
    assert (passed, detail) == (False, "disagreement at u=(1, 1, 4), v=(1, 1, 4), b=0")


def test_bound_ordering_check_fails_for_an_sp_rate_below_gv(monkeypatch):
    sp_rate = sticky.sp_rate
    monkeypatch.setattr(sticky, "sp_rate", lambda beta: sp_rate(beta) - 1.0)
    checks = dict(verify._sticky_checks(2, verify._RESIDUAL_TOL))
    passed, detail = checks["bound ordering"]()
    assert not passed
    assert detail.startswith("ordering broken at beta=0.01: "), detail


@pytest.mark.parametrize("row, shift, want", [
    ("synthesis-time bounds", lambda t: -t, "time 0 outside [2, 8] for AC"),
    ("producibility criterion", lambda t: 1, "AC: time test False, subsequence test True"),
])
def test_synthesis_time_checks_fail_for_one_strand_off(monkeypatch, row, shift, want):
    # the closures are called directly: the brute-force oracle reads synthesis_time too
    synthesis_time = synthesis.synthesis_time

    def off(w):
        t = synthesis_time(w)
        return t + shift(t) if w == "AC" else t

    monkeypatch.setattr(synthesis, "synthesis_time", off)
    checks = dict(verify._synthesis_checks(2, verify._RESIDUAL_TOL))
    assert checks[row]() == (False, want)


def test_capacity_shape_check_fails_for_a_dip_and_for_a_plateau_below_2(monkeypatch):
    capacity = synthesis.capacity
    checks = dict(verify._synthesis_checks(2, verify._RESIDUAL_TOL))
    monkeypatch.setattr(synthesis, "capacity", lambda tau: capacity(tau) - (tau == 2.0))
    passed, detail = checks["capacity shape"]()
    assert not passed
    assert detail.startswith("capacity not nondecreasing: "), detail
    monkeypatch.setattr(synthesis, "capacity", lambda tau: min(capacity(tau), 1.99))
    assert checks["capacity shape"]() == (False, "capacity differs from 2 beyond tau = 5/2")
