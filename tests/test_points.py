"""Tests for the per-point evaluation records and the input domains."""

import dataclasses
import math

import pytest

from gvbound import acsv, cli, numeric, sticky, synthesis
from gvbound.errors import DomainError, MemoryBudgetError
from gvbound.numeric import entropy

# ------------------------------------------------------------- sticky records


def test_sticky_point_diagonal_branch():
    p = sticky.evaluate_point(0.0, 0.3)
    assert p.branch == "diagonal"
    assert p.ball_rate == pytest.approx(entropy(0.3), abs=1e-15)
    assert p.capacity == pytest.approx(entropy(0.3), abs=1e-15)
    assert p.critical_point is None
    assert not (p.saturated or p.gv_saturated or p.lb_boundary)


def test_sticky_point_smooth_branch():
    p = sticky.evaluate_point(0.125, 0.5)
    assert p.branch == "smooth"
    assert p.ball_rate == pytest.approx(1.7298770110682415, abs=1e-12)
    assert p.critical_point == sticky.critical_point_closed_form(0.5, 0.25)
    assert p.critical_point.residual_norm <= 1e-9
    assert (p.gv_rate, p.gv_rho_star) == sticky.gv_rate(0.125)
    assert p.sp_rate == sticky.sp_rate(0.125)
    assert p.lb_rate == sticky.simple_lb_rate(0.125)
    assert not (p.saturated or p.gv_saturated or p.lb_boundary)


def test_sticky_point_saturated_ball_is_not_a_saturated_gv_rate():
    p = sticky.evaluate_point(0.4, 0.5)
    assert p.branch == "saturated"
    assert p.saturated
    assert p.ball_rate == 2.0
    assert p.critical_point is None
    # the ball covers all pairs at rho = 1/2, yet the best rho keeps gv > 0
    assert p.gv_rate > 0.0
    assert not p.gv_saturated
    assert p.lb_boundary


def test_sticky_point_without_rho_has_no_ball():
    p = sticky.evaluate_point(0.5)
    assert p.capacity == 1.0
    assert p.gv_rate == 0.0
    assert p.gv_saturated
    assert p.lb_boundary
    assert (p.rho, p.branch, p.ball_rate, p.critical_point) == (None,) * 4
    assert not p.saturated
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gv_rate = 1.0


# ---------------------------------------------------------- synthesis records


def test_synthesis_point_unconstrained_branch():
    p = synthesis.evaluate_point(3.0, 0.5)
    assert p.branch == "unconstrained"
    assert p.delta_max is None
    assert p.critical_point is None
    assert p.ball_rate_upper == pytest.approx(
        2.0 + entropy(0.5) + 0.5 * math.log2(3.0), abs=1e-12
    )
    assert synthesis.evaluate_point(3.0, 0.9).ball_rate_upper == 4.0


def test_synthesis_point_diagonal_branch():
    p = synthesis.evaluate_point(2.0, 0.0)
    assert p.branch == "diagonal"
    assert p.ball_rate_upper == p.capacity
    assert p.delta_max == synthesis.delta_max(2.0)[0]
    assert p.critical_point is None
    assert p.lb_rate == p.capacity


def test_synthesis_point_smooth_branch():
    p = synthesis.evaluate_point(2.0, 0.3)
    assert p.branch == "smooth"
    assert p.critical_point == synthesis.critical_point(2.0, 0.3)
    assert p.gv_rate == pytest.approx(0.5343209657080084, abs=1e-10)
    assert p.ball_rate_upper == synthesis.ball_rate_upper(2.0, 0.3)
    assert p.gv_rate == synthesis.gv_rate(2.0, 0.3)
    assert p.lb_rate == synthesis.simple_lb_rate(2.0, 0.3)
    assert not (p.saturated or p.gv_floored or p.lb_floored)


def test_synthesis_point_saturated_branch():
    p = synthesis.evaluate_point(2.0, 0.73)
    assert p.branch == "saturated"
    assert p.saturated
    assert p.ball_rate_upper == 2.0 * p.capacity
    assert p.critical_point is None
    assert p.gv_rate == 0.0
    assert p.lb_rate == 0.0
    assert p.lb_floored


# ------------------------------------------------- point blocks off the smooth branch


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["sticky", "--rho", "0.3", "--beta", "0"], ""),
        (["sticky", "--rho", "0.5", "--beta", "0.4"], "saturated;lb-boundary"),
        (["synthesis", "--tau", "2", "--delta", "0"], "upper-bound"),
        (["synthesis", "--tau", "2", "--delta", "0.73"], "upper-bound;saturated"),
        (["synthesis", "--tau", "3", "--delta", "0.5"], "upper-bound"),
    ],
)
def test_cli_point_block_without_critical_point(capsys, argv, flags):
    assert cli.main(["point", "--channel", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(" = ", 1)[0] for line in lines]
    assert not [k for k in keys if k[:2] in ("x_", "y_", "z_") or k == "residual_norm"]
    assert lines[-1] == f"flags = {flags}"


# -------------------------------------------------------------- input domains

# 1 - x - y, the central binomial denominator
_H = acsv.SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)])


@pytest.mark.parametrize(
    "name, args",
    [
        ("sticky.ball_rate", (0.5, math.nan)),
        ("sticky.ball_rate", (0.5, math.inf)),
        ("sticky.ball_rate", (math.nan, 0.1)),
        ("sticky.simple_lb_rate", (math.nan,)),
        ("sticky.sp_rate", (0.7,)),
        ("sticky.sp_rate", (math.nan,)),
        ("sticky.gv_rate", (math.nan,)),
        ("sticky.critical_point_closed_form", (0.5, math.nan)),
        ("sticky.evaluate_point", (0.1, math.nan)),
        ("sticky.evaluate_point", (math.inf,)),
        ("synthesis.capacity", (math.nan,)),
        ("synthesis.capacity", (math.inf,)),
        ("synthesis.gv_rate", (math.nan, 0.1)),
        ("synthesis.simple_lb_rate", (2.0, math.nan)),
        ("synthesis.critical_point", (math.inf, 0.1)),
        ("synthesis.evaluate_point", (2.0, math.nan)),
        ("synthesis.evaluate_point", (-math.inf, 0.3)),
        ("acsv.critical_system_residual", (_H, (math.nan, 1.0), (0.4, 0.4))),
        ("acsv.critical_system_residual", (_H, (math.inf, 1.0), (0.4, 0.4))),
        ("acsv.critical_system_residual", (_H, (1.0, 1.0), (0.4, math.nan))),
        ("acsv.solve_critical_point", (_H, (1.0, 1.0), (math.nan, 0.5))),
        ("acsv.solve_critical_point", (_H, (math.nan, 1.0))),
        ("synthesis.gv_rate", (2.0, None)),
        ("acsv.leading_term", (_H, _H, (1.0, 1.0), (0.5, math.nan), 4)),
        ("synthesis.ball_rate_upper", (2.0, None)),
        ("synthesis.simple_lb_rate", (2.0, None)),
        ("synthesis.evaluate_point", (2.0, None)),
    ],
)
def test_nan_and_inf_raise_domain_error(name, args):
    module, fn = name.split(".")
    modules = {"acsv": acsv, "numeric": numeric, "sticky": sticky, "synthesis": synthesis}
    with pytest.raises(DomainError):
        getattr(modules[module], fn)(*args)


def test_cli_point_rejects_nan_tau(capsys):
    code = cli.main(["point", "--channel", "synthesis", "--tau", "nan"])
    assert code == 2
    assert "error: tau must be" in capsys.readouterr().err


def test_sticky_count_pairs_rejects_non_integer_sizes():
    with pytest.raises(DomainError):
        sticky.count_pairs_exact(3.5, 3, 2, 1)
    with pytest.raises(DomainError):
        sticky.count_pairs_exact(3, 3, 2, 1.0, mode="log2")
    with pytest.raises(DomainError):
        sticky.pair_count_table(3, 3.5, 2, 1)
    with pytest.raises(DomainError):
        sticky.count_pairs_bruteforce(3.5, 3, 2, 1)
    with pytest.raises(DomainError):
        sticky.compositions(3.5, 2)
    for args in ((2.5, 2, 1, 1), (3, 3, 0.5, 1), (3, 3, 2, 9.5)):
        with pytest.raises(DomainError):
            sticky.pair_count_table(*args)
    with pytest.raises(DomainError):
        sticky.Composition((1.5, 2))
    u, v = sticky.Composition((1, 2)), sticky.Composition((2, 1))
    for b in (1.5, math.nan):
        with pytest.raises(DomainError):
            sticky.confusable_bruteforce(u, v, b)
        with pytest.raises(DomainError):
            sticky.is_confusable(u, v, b)


def test_synthesis_count_pairs_rejects_non_integer_sizes():
    with pytest.raises(DomainError):
        synthesis.count_pairs_exact(3.5, 3, 1)
    with pytest.raises(DomainError):
        synthesis.count_pairs_exact(3, 3, 1.5, mode="log2")
    with pytest.raises(DomainError):
        synthesis.pair_count_table(2.0)
    for n in (3.5, math.nan):
        with pytest.raises(DomainError):
            synthesis.count_words_by_time(n)
    with pytest.raises(DomainError):
        synthesis.count_words_exact(3.5, 10)
    with pytest.raises(DomainError):
        synthesis.count_pairs_bruteforce(2.5, 4, 1)


@pytest.mark.parametrize("bad", [1.0, math.nan, math.inf, True])
@pytest.mark.parametrize(
    "table, index",
    [
        (sticky.pair_count_table(2, 2, 1, 2), (1, 1, 0)),
        (synthesis.pair_count_table(2), (3, 1)),
    ],
    ids=["sticky", "synthesis"],
)
@pytest.mark.parametrize("query", ["count", "total"])
def test_table_queries_reject_non_integer_indices(table, index, query, bad):
    for k in range(len(index)):
        bad_index = index[:k] + (bad,) + index[k + 1:]
        with pytest.raises(DomainError, match="must be an integer"):
            getattr(table, query)(*bad_index)


def test_negative_indices_count_zero():
    sticky_table, synthesis_table = sticky.pair_count_table(2, 2, 1, 2), synthesis.pair_count_table(2)
    for index in ((-1, 1, 0), (1, -1, 0), (1, 1, -1)):
        assert sticky_table.count(*index) == sticky_table.total(*index) == 0
    for index in ((-1, 1), (3, -1)):
        assert synthesis_table.count(*index) == synthesis_table.total(*index) == 0
    assert sticky.count_pairs_exact(2, 2, 1, -1) == sticky.count_pairs_bruteforce(2, -1, 1, 0) == 0
    assert synthesis.count_pairs_exact(2, -1, 0) == synthesis.count_pairs_bruteforce(2, 3, -1) == 0


@pytest.mark.parametrize(
    "name, args",
    [
        ("sticky.count_pairs_exact", (True, True, True, 0)),
        ("sticky.count_pairs_bruteforce", (2, 2, True, 0)),
        ("sticky.pair_count_table", (2, 2, True, 1)),
        ("synthesis.count_pairs_exact", (True, 3, 1)),
        ("numeric.binomial_exact", (True, 1)),
        ("numeric.binomial_exact", (3, False)),
    ],
)
def test_bool_sizes_raise_domain_error(name, args):
    module, fn = name.split(".")
    modules = {"numeric": numeric, "sticky": sticky, "synthesis": synthesis}
    with pytest.raises(DomainError, match="must be an integer"):
        getattr(modules[module], fn)(*args)


_U, _V = sticky.Composition((1, 2)), sticky.Composition((2, 1))


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("sticky.Composition", ((2, 0),), "part must be >= 1, got 0"),
        ("sticky.compositions", (-1, 2), "n must be >= 0, got -1"),
        ("sticky.compositions", (3, -2), "r must be >= 0, got -2"),
        ("sticky.is_confusable", (_U, _V, -1), "b must be >= 0, got -1"),
        ("sticky.confusable_bruteforce", (_U, _V, -1), "b must be >= 0, got -1"),
        ("sticky.iter_pair_layers", (3, -1, 2, 2), "n2_max must be >= 0, got -1"),
        ("sticky.pair_count_table", (3, 3, 0, 2), "r must be >= 1, got 0"),
        ("sticky.pair_count_table", (3, 3, 2, -1), "s_max must be >= 0, got -1"),
        ("synthesis.count_words_by_time", (-1,), "n must be >= 0, got -1"),
        ("synthesis.count_words_exact", (-1, 4), "n must be >= 0, got -1"),
        ("synthesis.pair_count_table", (-1,), "n must be >= 0, got -1"),
        ("synthesis.count_pairs_exact", (-1, 0, 0), "n must be >= 0, got -1"),
        ("synthesis.count_pairs_bruteforce", (-1, 0, 0), "n must be >= 0, got -1"),
        ("numeric.binomial_exact", (-1, 0), "n must be >= 0, got -1"),
        ("numeric.binomial_exact", (3, -1), "k must be >= 0, got -1"),
        ("acsv.SparseMultivariatePolynomial", (0, []), "num_vars must be >= 1, got 0"),
        ("acsv.SparseMultivariatePolynomial", (1, [((-1,), 1.0)]), "exponent must be >= 0, got -1"),
        ("acsv.leading_term", (_H, _H, (1.0, 1.0), (0.5, 0.5), 0), "n must be >= 1, got 0"),
    ],
)
def test_sizes_below_their_floor_raise_one_message(name, args, message):
    module, fn = name.split(".")
    modules = {"acsv": acsv, "numeric": numeric, "sticky": sticky, "synthesis": synthesis}
    with pytest.raises(DomainError, match=f"^{message}$"):
        result = getattr(modules[module], fn)(*args)
        if name == "sticky.iter_pair_layers":
            next(result)  # a generator checks its arguments when first advanced


@pytest.mark.parametrize(
    "name, args",
    [
        ("sticky.count_pairs_exact", (0, 0, 0, 0)),
        ("sticky.count_pairs_exact", (-1, 0, 1, 0)),
        ("sticky.count_pairs_exact", (3, 3, 2, 1)),
        ("sticky.count_pairs_exact", (3, 3, 4, 1)),
        ("sticky.count_pairs_exact", (3, 3, 2, 7)),
        ("sticky.pair_count_table", (3, 3, 2, 1)),
        ("sticky.iter_pair_layers", (3, 3, 2, 1)),
        ("synthesis.pair_count_table", (0,)),
        ("synthesis.count_pairs_exact", (2, 3, 1)),
        ("numeric.count_mode", ()),
    ],
)
def test_unknown_count_mode_raises_domain_error(name, args):
    module, fn = name.split(".")
    modules = {"numeric": numeric, "sticky": sticky, "synthesis": synthesis}
    with pytest.raises(DomainError, match="mode must be 'exact' or 'log2'"):
        result = getattr(modules[module], fn)(*args, mode="bogus")
        if name == "sticky.iter_pair_layers":
            next(result)  # a generator checks its arguments when first advanced


def _no_step(*args, **kwargs):
    raise AssertionError("a DP step ran before the cell budget was checked")


def test_pair_tables_over_the_cell_budget_raise_before_allocating(monkeypatch):
    modes = numeric._modes()
    for name in ("exact", "log2"):
        monkeypatch.setitem(modes, name, dataclasses.replace(modes[name], add=_no_step))
    budget = f"budget is {numeric.TABLE_CELL_BUDGET}"
    with pytest.raises(MemoryBudgetError, match=budget):
        sticky.pair_count_table(1000, 1000, 1, 100)
    with pytest.raises(MemoryBudgetError, match=budget):
        synthesis.pair_count_table(3000, "log2")
    # the kernels' own slabs fit the budget here, only the tables do not
    with pytest.raises(MemoryBudgetError, match=budget):
        sticky.pair_count_table(1000, 1000, 500, 100, "log2")
    with pytest.raises(MemoryBudgetError, match=budget):
        next(sticky.iter_pair_layers(1000, 1000, 500, 100, "log2"))
    with pytest.raises(MemoryBudgetError, match=budget):
        synthesis.pair_count_table(2000, "log2")


@pytest.mark.parametrize(
    "build, cells",
    [
        (lambda: sticky.pair_count_table(3, 5, 2, 6), 4 * 6 * 7),
        (lambda: sticky.pair_count_table(5, 3, 2, 6), 4 * 6 * 7),
        (lambda: next(sticky.iter_pair_layers(3, 5, 2, 6)), 4 * 6 * 7),
        (lambda: synthesis.pair_count_table(3), 4 * 25 * 4),
    ],
)
def test_pair_tables_fit_a_budget_of_exactly_their_cells(monkeypatch, build, cells):
    monkeypatch.setattr(numeric, "TABLE_CELL_BUDGET", cells)
    assert build().entries.size == cells
    monkeypatch.setattr(numeric, "TABLE_CELL_BUDGET", cells - 1)
    with pytest.raises(MemoryBudgetError, match=f"needs {cells} cells"):
        build()
