"""Unit tests for the shared numeric primitives."""

import math

import numpy as np
import pytest

from gvbound.errors import (
    DomainError,
    MemoryBudgetError,
    NoRootFoundError,
    NoSignChangeError,
)
from gvbound.numeric import (
    TABLE_CELL_BUDGET,
    BracketedRoot,
    RealPolynomial,
    binomial_exact,
    count_mode,
    entropy,
    find_root_bisection,
    smallest_positive_root,
)


def test_entropy_endpoints_and_peak():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0
    assert entropy(0.5) == 1.0


def test_entropy_symmetry_and_known_value():
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, 1.0, size=20):
        assert entropy(float(p)) == pytest.approx(entropy(float(1.0 - p)), abs=1e-12)
    assert entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-15)


def test_entropy_rejects_out_of_range():
    with pytest.raises(DomainError):
        entropy(-0.01)
    with pytest.raises(DomainError):
        entropy(1.01)


def test_binomial_exact_matches_pascal():
    for n in range(0, 12):
        for k in range(0, n + 1):
            if 0 < k < n:
                expected = binomial_exact(n - 1, k - 1) + binomial_exact(n - 1, k)
                assert binomial_exact(n, k) == expected
    assert binomial_exact(0, 0) == 1
    assert binomial_exact(52, 5) == 2598960


def test_binomial_exact_is_arbitrary_precision():
    value = binomial_exact(200, 100)
    assert isinstance(value, int)
    assert value == math.comb(200, 100)
    assert value > 2**195


def test_binomial_exact_rejects_bad_arguments():
    with pytest.raises(DomainError):
        binomial_exact(-1, 0)
    with pytest.raises(DomainError):
        binomial_exact(3, 4)
    with pytest.raises(DomainError):
        binomial_exact(3, -1)
    with pytest.raises(DomainError):
        binomial_exact(3.5, 1)
    with pytest.raises(DomainError):
        binomial_exact(3, 1.0)


def test_count_mode_tables_sums_and_cell_budget():
    exact, log2 = count_mode("exact"), count_mode("log2")
    table = exact.blank((2, 3))
    assert table.dtype == object
    assert table.tolist() == [[0, 0, 0], [0, 0, 0]]
    assert log2.blank((2,)).tolist() == [-math.inf, -math.inf]
    assert exact.sum(np.array([2**70, 3], dtype=object)) == 2**70 + 3
    assert log2.sum(np.array([3.0, 3.0, -math.inf])) == pytest.approx(4.0, abs=1e-15)
    assert log2.sum(log2.blank((4,))) == -math.inf
    with pytest.raises(MemoryBudgetError, match=f"budget is {TABLE_CELL_BUDGET}"):
        exact.blank((2, TABLE_CELL_BUDGET // 2 + 1))


def test_bisection_finds_simple_root():
    result = find_root_bisection(lambda x: x * x - 2.0, 0.0, 2.0)
    assert isinstance(result, BracketedRoot)
    assert result.root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert abs(result.residual) <= 1e-10
    lo, hi = result.bracket
    assert lo <= result.root <= hi


def test_bisection_detects_exact_endpoint_root():
    result = find_root_bisection(lambda x: x - 1.0, 1.0, 3.0)
    assert result.root == 1.0
    assert result.residual == 0.0


def test_bisection_rejects_same_sign_bracket():
    with pytest.raises(NoSignChangeError):
        find_root_bisection(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisection_rejects_bad_bracket():
    with pytest.raises(DomainError):
        find_root_bisection(lambda x: x, 2.0, 1.0)


def test_real_polynomial_trims_and_evaluates():
    p = RealPolynomial([1.0, -3.0, 2.0, 0.0, 0.0])
    assert p.coefficients == (1.0, -3.0, 2.0)
    assert p.degree == 2
    # roots of 2x^2 - 3x + 1 are 1/2 and 1
    assert p.evaluate(0.5) == pytest.approx(0.0, abs=1e-15)
    assert p.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)
    xs = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        p.evaluate_many(xs), [p.evaluate(float(x)) for x in xs], atol=1e-14
    )


def test_real_polynomial_zero_handling():
    z = RealPolynomial([0.0, 0.0])
    assert z.is_zero()
    assert z.degree == 0
    with pytest.raises(DomainError):
        smallest_positive_root(z)


def test_smallest_positive_root_picks_leftmost():
    # (x - 1/2)(x - 1)(x - 3) expanded, constant term first
    p = RealPolynomial([-1.5, 5.0, -4.5, 1.0])
    result = smallest_positive_root(p)
    assert result.root == pytest.approx(0.5, abs=1e-10)


def test_smallest_positive_root_handles_tight_root():
    # root at 1e-5, far below the initial grid step of 10 / 1024
    p = RealPolynomial([-1e-5, 1.0])
    result = smallest_positive_root(p)
    assert result.root == pytest.approx(1e-5, rel=1e-8)


def test_smallest_positive_root_reports_missing_root():
    p = RealPolynomial([1.0, 0.0, 1.0])
    with pytest.raises(NoRootFoundError, match=r"\(0, 10.0\]"):
        smallest_positive_root(p)
    # the scan covers (0, 10]: a root at 9.5 is found, one at 10.5 is not
    assert smallest_positive_root(RealPolynomial([-9.5, 1.0])).root == pytest.approx(9.5)
    with pytest.raises(NoRootFoundError):
        smallest_positive_root(RealPolynomial([-10.5, 1.0]))


@pytest.mark.parametrize("coefficients", [[-5.0, 1.0], [25.0, -10.0, 1.0]])
def test_smallest_positive_root_on_a_grid_point(coefficients):
    # 5 = 512 * 10 / 1024 is a grid point; (x - 5)^2 touches zero there
    # without a sign change, and the cell that ends on it is bisected
    result = smallest_positive_root(RealPolynomial(coefficients))
    assert result.root == 5.0
    assert result.residual == 0.0


@pytest.mark.parametrize(
    "coefficients", [[-1.5, 5.0, -4.5, 1.0], [-1e-5, 1.0], [1.0, 0.0, 1.0]]
)
def test_smallest_positive_root_scans_the_grid_once(monkeypatch, coefficients):
    calls = []
    evaluate_many = RealPolynomial.evaluate_many

    def counted(self, xs):
        calls.append(len(xs))
        return evaluate_many(self, xs)

    monkeypatch.setattr(RealPolynomial, "evaluate_many", counted)
    try:
        smallest_positive_root(RealPolynomial(coefficients))
    except NoRootFoundError:
        pass
    assert calls == [1024]
