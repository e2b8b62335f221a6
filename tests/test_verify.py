"""Tests for the self-check suites."""

import pytest

from gvbound import cli
from gvbound.errors import DomainError, GVBoundError
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
