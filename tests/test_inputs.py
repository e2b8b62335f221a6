"""One hostile-value sweep over the public entry points.

Each site is one valid call of a public function of numeric, sticky,
synthesis, acsv or verify, or of curves.build_curves on a CurveSpec,
with one argument or field left open.  The sweep puts each of the values
in HOSTILE there in turn.  A call must return a result without a NaN or
+inf in it, or raise a GVBoundError, within a 3-s alarm.  A returned
iterator is advanced twice, since the pair-layer generators check their
sizes on the first next.

An argument of the package's own types (a polynomial, a composition or
a critical point) is swept too: each hostile value stands in for it.
The records themselves are not swept, nor are their methods but eight:
SparseMultivariatePolynomial.partial, whose variable index is swept,
RealPolynomial.evaluate and evaluate_many, whose points are,
CountMode.blank, whose shape and one of its sizes are, and the count and
total queries of sticky.PairCountTable and synthesis.SynthesisPairTable,
whose indices are.  A checked record's _replace runs its constructor's
checks (tested below the sweep).
"""

from __future__ import annotations

import math
import signal
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterator

import numpy as np
import pytest

from gvbound import acsv, numeric, sticky, synthesis, verify
from gvbound.curves import CurveSpec, build_curves
from gvbound.errors import DomainError, GVBoundError

HOSTILE = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "max-float": sys.float_info.max,
    "0": 0,
    "-1": -1,
    "True": True,
    "None": None,
    "str": "0.3",
    "complex": 0.3 + 0j,
    "list": [0.3],
    "Fraction": Fraction(3, 10),
    "Decimal": Decimal("0.3"),
    "Decimal-nan": Decimal("nan"),
    "np.float64": np.float64(0.3),
    "np.int64": np.int64(3),
    "np.nan": np.float64("nan"),
    "array": np.array([0.3]),
    "10**400": 10**400,
    "-10**400": -(10**400),
    "10**5000": 10**5000,
    "[10**5000]": [10**5000],
}

_H = acsv.SparseMultivariatePolynomial(2, [((0, 0), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)])
_U, _V = sticky.Composition([1, 2]), sticky.Composition([2, 1])
_CP = sticky.critical_point_closed_form(0.5, 0.2)
_H4, _G4 = sticky.pair_generating_denominator(), sticky.pair_generating_numerator()
_TERMS = [((0,), 1.0), ((1,), -1.0)]
_Poly = acsv.SparseMultivariatePolynomial
_closed_form = sticky.critical_point_closed_form
_PAIRS = sticky.pair_count_table(6, 6, 3, 8)
_SYNTH = synthesis.pair_count_table(3)


# overflows at max-float, where evaluate raises DomainError
_CUBIC = numeric.RealPolynomial([-1.0, 1.0, 1.0, 1.0])
# 1 - x: finite at every finite x; evaluate_many returns an overflowing value as
# an infinite one, which the root scan reads as a sign
_LINE = numeric.RealPolynomial([1.0, -1.0])


def _residual(r=(1.0, 1.0), z=(0.5, 0.5), H=_H):
    return acsv.critical_system_residual(H, r, z)


def _solve(r=(1.0, 1.0), initial=(0.4, 0.4), H=_H):
    return acsv.solve_critical_point(H, r, initial)


def _leading(r=_CP.direction, w=_CP.z, n=10, H=_H4, G=_G4):
    return acsv.leading_term(H, G, r, w, n)


def _spec(**fields):
    base = {"channel": "sticky", "bounds": ("gv",), "lo": 0.1, "hi": 0.4, "steps": 5}
    return build_curves(CurveSpec(**{**base, **fields}))


def _synthesis_spec(**fields):
    return _spec(**{"channel": "synthesis", "tau": 2.0, **fields})


# one entry per (function, argument); the lambda's default is the valid value
SITES = {
    "numeric.entropy(p)": lambda v=0.3: numeric.entropy(v),
    "numeric.check_sizes(n)": lambda v=3: numeric.check_sizes(n=v),
    "numeric.count_mode(mode)": lambda v="log2": numeric.count_mode(v),
    "numeric.CountMode.blank(shape)": lambda v=(2, 3): numeric.count_mode("log2").blank(v),
    "numeric.CountMode.blank(size)": lambda v=3: numeric.count_mode("log2").blank((2, v)),
    "numeric.RealPolynomial(coefficients)": lambda v=(1.0, -2.0): numeric.RealPolynomial(v),
    "numeric.RealPolynomial(coefficient)": lambda v=0.5: numeric.RealPolynomial([1.0, v, -2.0]),
    "numeric.RealPolynomial.evaluate(x)": lambda v=0.5: _CUBIC.evaluate(v),
    "numeric.RealPolynomial.evaluate_many(xs)": lambda v=(0.5,): _LINE.evaluate_many(v),
    "numeric.RealPolynomial.evaluate_many(x)": lambda v=0.5: _LINE.evaluate_many([0.0, v]),
    "numeric.smallest_positive_root(p)": lambda v=_CUBIC: numeric.smallest_positive_root(v),
    "sticky.Composition(parts)": lambda v=(1, 2): sticky.Composition(v),
    "sticky.Composition(part)": lambda v=2: sticky.Composition([1, v]),
    "sticky.compositions(n)": lambda v=4: sticky.compositions(v, 2),
    "sticky.compositions(r)": lambda v=2: sticky.compositions(4, v),
    "sticky.l1_distance(u)": lambda v=_U: sticky.l1_distance(v, _V),
    "sticky.l1_distance(v)": lambda v=_V: sticky.l1_distance(_U, v),
    "sticky.is_confusable(u)": lambda v=_U: sticky.is_confusable(v, _V, 1),
    "sticky.is_confusable(v)": lambda v=_V: sticky.is_confusable(_U, v, 1),
    "sticky.is_confusable(b)": lambda v=1: sticky.is_confusable(_U, _V, v),
    "sticky.confusable_bruteforce(u)": lambda v=_U: sticky.confusable_bruteforce(v, _V, 1),
    "sticky.confusable_bruteforce(b)": lambda v=1: sticky.confusable_bruteforce(_U, _V, v),
    "sticky.pair_count_table(n1_max)": lambda v=6: sticky.pair_count_table(v, 6, 3, 4),
    "sticky.pair_count_table(n2_max)": lambda v=6: sticky.pair_count_table(6, v, 3, 4),
    "sticky.pair_count_table(r)": lambda v=3: sticky.pair_count_table(6, 6, v, 4),
    "sticky.pair_count_table(s_max)": lambda v=4: sticky.pair_count_table(6, 6, 3, v),
    "sticky.pair_count_table(mode)": lambda v="log2": sticky.pair_count_table(6, 6, 3, 4, v),
    "sticky.iter_pair_layers(n1_max)": lambda v=6: sticky.iter_pair_layers(v, 6, 3, 4),
    "sticky.iter_pair_layers(n2_max)": lambda v=6: sticky.iter_pair_layers(6, v, 3, 4),
    "sticky.iter_pair_layers(r_max)": lambda v=3: sticky.iter_pair_layers(6, 6, v, 4),
    "sticky.iter_pair_layers(s_max)": lambda v=4: sticky.iter_pair_layers(6, 6, 3, v),
    "sticky.iter_pair_layers(mode)": lambda v="log2": sticky.iter_pair_layers(6, 6, 3, 4, v),
    "sticky.count_pairs_exact(n1)": lambda v=6: sticky.count_pairs_exact(v, 6, 3, 2),
    "sticky.count_pairs_exact(n2)": lambda v=6: sticky.count_pairs_exact(6, v, 3, 2),
    "sticky.count_pairs_exact(r)": lambda v=3: sticky.count_pairs_exact(6, 6, v, 2),
    "sticky.count_pairs_exact(s)": lambda v=2: sticky.count_pairs_exact(6, 6, 3, v),
    "sticky.count_pairs_exact(mode)": lambda v="log2": sticky.count_pairs_exact(6, 6, 3, 2, v),
    "sticky.count_pairs_bruteforce(n1)": lambda v=6: sticky.count_pairs_bruteforce(v, 6, 3, 2),
    "sticky.count_pairs_bruteforce(n2)": lambda v=6: sticky.count_pairs_bruteforce(6, v, 3, 2),
    "sticky.count_pairs_bruteforce(r)": lambda v=3: sticky.count_pairs_bruteforce(6, 6, v, 2),
    "sticky.count_pairs_bruteforce(s)": lambda v=2: sticky.count_pairs_bruteforce(6, 6, 3, v),
    "sticky.PairCountTable.count(n1)": lambda v=6: _PAIRS.count(v, 6, 2),
    "sticky.PairCountTable.count(n2)": lambda v=6: _PAIRS.count(6, v, 2),
    "sticky.PairCountTable.count(s)": lambda v=2: _PAIRS.count(6, 6, v),
    "sticky.PairCountTable.total(n1)": lambda v=6: _PAIRS.total(v, 6, 2),
    "sticky.PairCountTable.total(n2)": lambda v=6: _PAIRS.total(6, v, 2),
    "sticky.PairCountTable.total(s_cap)": lambda v=2: _PAIRS.total(6, 6, v),
    "sticky.critical_point_closed_form(rho)": lambda v=0.3: _closed_form(v, 0.4),
    "sticky.critical_point_closed_form(delta)": lambda v=0.4: _closed_form(0.3, v),
    "sticky.leading_pair_count_log2(n)": lambda v=10: sticky.leading_pair_count_log2(v, 0.5, 0.2),
    "sticky.leading_pair_count_log2(rho)": lambda v=0.5: sticky.leading_pair_count_log2(10, v, 0.2),
    "sticky.leading_pair_count_log2(delta)":
        lambda v=0.2: sticky.leading_pair_count_log2(10, 0.5, v),
    "sticky.ball_rate(rho)": lambda v=0.3: sticky.ball_rate(v, 0.1),
    "sticky.ball_rate(beta)": lambda v=0.1: sticky.ball_rate(0.3, v),
    "sticky.beta_max(rho)": lambda v=0.3: sticky.beta_max(v),
    "sticky.gv_rate(beta)": lambda v=0.1: sticky.gv_rate(v),
    "sticky.sp_rate(beta)": lambda v=0.1: sticky.sp_rate(v),
    "sticky.simple_lb_rate(beta)": lambda v=0.1: sticky.simple_lb_rate(v),
    "sticky.evaluate_point(beta)": lambda v=0.1: sticky.evaluate_point(v, 0.3),
    "sticky.evaluate_point(rho)": lambda v=0.3: sticky.evaluate_point(0.1, v),
    "synthesis.synthesis_time(w)": lambda v="ACGT": synthesis.synthesis_time(v),
    "synthesis.count_words_by_time(n)": lambda v=3: synthesis.count_words_by_time(v),
    "synthesis.count_words_exact(n)": lambda v=3: synthesis.count_words_exact(v, 10),
    "synthesis.count_words_exact(t_max)": lambda v=10: synthesis.count_words_exact(3, v),
    "synthesis.pair_count_table(n)": lambda v=3: synthesis.pair_count_table(v),
    "synthesis.pair_count_table(mode)": lambda v="log2": synthesis.pair_count_table(3, v),
    "synthesis.count_pairs_exact(n)": lambda v=3: synthesis.count_pairs_exact(v, 12, 2),
    "synthesis.count_pairs_exact(t)": lambda v=12: synthesis.count_pairs_exact(3, v, 2),
    "synthesis.count_pairs_exact(s)": lambda v=2: synthesis.count_pairs_exact(3, 12, v),
    "synthesis.count_pairs_exact(mode)": lambda v="log2": synthesis.count_pairs_exact(3, 12, 2, v),
    "synthesis.count_pairs_bruteforce(n)": lambda v=3: synthesis.count_pairs_bruteforce(v, 12, 2),
    "synthesis.count_pairs_bruteforce(t)": lambda v=12: synthesis.count_pairs_bruteforce(3, v, 2),
    "synthesis.count_pairs_bruteforce(s)": lambda v=2: synthesis.count_pairs_bruteforce(3, 12, v),
    "synthesis.SynthesisPairTable.count(t)": lambda v=12: _SYNTH.count(v, 2),
    "synthesis.SynthesisPairTable.count(s)": lambda v=2: _SYNTH.count(12, v),
    "synthesis.SynthesisPairTable.total(t_cap)": lambda v=12: _SYNTH.total(v, 2),
    "synthesis.SynthesisPairTable.total(s_cap)": lambda v=2: _SYNTH.total(12, v),
    "synthesis.capacity(tau)": lambda v=2.0: synthesis.capacity(v),
    "synthesis.critical_point(tau)": lambda v=2.0: synthesis.critical_point(v, 0.3),
    "synthesis.critical_point(delta)": lambda v=0.3: synthesis.critical_point(2.0, v),
    "synthesis.delta_max(tau)": lambda v=2.0: synthesis.delta_max(v),
    "synthesis.ball_rate_upper(tau)": lambda v=2.0: synthesis.ball_rate_upper(v, 0.3),
    "synthesis.ball_rate_upper(delta)": lambda v=0.3: synthesis.ball_rate_upper(2.0, v),
    "synthesis.gv_rate(tau)": lambda v=2.0: synthesis.gv_rate(v, 0.3),
    "synthesis.gv_rate(delta)": lambda v=0.3: synthesis.gv_rate(2.0, v),
    "synthesis.simple_lb_rate(tau)": lambda v=2.0: synthesis.simple_lb_rate(v, 0.3),
    "synthesis.simple_lb_rate(delta)": lambda v=0.3: synthesis.simple_lb_rate(2.0, v),
    "synthesis.evaluate_point(tau)": lambda v=2.0: synthesis.evaluate_point(v, 0.3),
    "synthesis.evaluate_point(delta)": lambda v=0.3: synthesis.evaluate_point(2.0, v),
    "acsv.SparseMultivariatePolynomial(num_vars)": lambda v=1: _Poly(v, _TERMS),
    "acsv.SparseMultivariatePolynomial(terms)": lambda v=_TERMS: _Poly(1, v),
    "acsv.SparseMultivariatePolynomial(term)": lambda v=((1,), -1.0): _Poly(1, [v]),
    "acsv.SparseMultivariatePolynomial(exponent)": lambda v=1: _Poly(1, [((v,), 1.0)]),
    "acsv.SparseMultivariatePolynomial(coefficient)": lambda v=-1.0: _Poly(1, [((1,), v)]),
    "acsv.SparseMultivariatePolynomial.partial(var)": lambda v=1: _H.partial(v),
    "acsv.CriticalPoint.at(H)": lambda v=_H: acsv.CriticalPoint.at(v, (1.0, 1.0), (0.5, 0.5)),
    "acsv.CriticalPoint.at(r)": lambda v=(1.0, 1.0): acsv.CriticalPoint.at(_H, v, (0.5, 0.5)),
    "acsv.CriticalPoint.at(z)": lambda v=(0.5, 0.5): acsv.CriticalPoint.at(_H, (1.0, 1.0), v),
    "acsv.critical_system_residual(H)": lambda v=_H: _residual(H=v),
    "acsv.critical_system_residual(r)": lambda v=(1.0, 1.0): _residual(r=v),
    "acsv.critical_system_residual(z)": lambda v=(0.5, 0.5): _residual(z=v),
    "acsv.critical_system_residual(r_1)": lambda v=1.0: _residual(r=(v, 1.0)),
    "acsv.critical_system_residual(z_1)": lambda v=0.5: _residual(z=(v, 0.5)),
    "acsv.solve_critical_point(H)": lambda v=_H: _solve(H=v),
    "acsv.solve_critical_point(r)": lambda v=(1.0, 1.0): _solve(r=v),
    "acsv.solve_critical_point(initial)": lambda v=(0.4, 0.4): _solve(initial=v),
    "acsv.solve_critical_point(initial_1)": lambda v=0.4: _solve(initial=(v, 0.4)),
    "acsv.growth_exponent(cp)": lambda v=_CP: acsv.growth_exponent(v),
    "acsv.leading_term(H)": lambda v=_H4: _leading(H=v),
    "acsv.leading_term(G)": lambda v=_G4: _leading(G=v),
    "acsv.leading_term(r)": lambda v=_CP.direction: _leading(r=v),
    "acsv.leading_term(w)": lambda v=_CP.z: _leading(w=v),
    "acsv.leading_term(w_1)": lambda v=_CP.z[0]: _leading(w=(v, *_CP.z[1:])),
    "acsv.leading_term(n)": lambda v=10: _leading(n=v),
    "verify.run_suite(suite)": lambda v="acsv": verify.run_suite(v),
    "verify.run_suite(n_budget)": lambda v=8: verify.run_suite("acsv", v),
    "curves.build_curves(CurveSpec(channel))": lambda v="sticky": _spec(channel=v),
    "curves.build_curves(CurveSpec(bounds))": lambda v=("gv", "sp"): _spec(bounds=v),
    "curves.build_curves(CurveSpec(bound))": lambda v="sp": _spec(bounds=("gv", v)),
    "curves.build_curves(CurveSpec(lo))": lambda v=0.1: _spec(lo=v),
    "curves.build_curves(CurveSpec(hi))": lambda v=0.4: _spec(hi=v),
    "curves.build_curves(CurveSpec(steps))": lambda v=5: _spec(steps=v),
    "curves.build_curves(CurveSpec(tau))": lambda v=2.0: _synthesis_spec(tau=v),
}

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _bad_numbers(result) -> Iterator[float]:
    """Each NaN or +inf in the result, its records, sequences and arrays included."""
    if isinstance(result, float):
        if math.isnan(result) or result == math.inf:
            yield result
    elif isinstance(result, np.ndarray):
        if result.dtype.kind == "f" and (np.isnan(result).any() or np.isposinf(result).any()):
            yield math.nan
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _bad_numbers(item)


def _outcome(call, value) -> str | None:
    """None when the call behaves; otherwise what it did instead."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(3)
    try:
        result = call(value)
        if isinstance(result, Iterator):
            result = list(islice(result, 2))
        bad = list(_bad_numbers(result))
        return f"returned {bad[0]!r}" if bad else None
    except GVBoundError:
        return None
    except _Timeout:
        return "ran past 3 s"
    except Exception as exc:  # the contract under test: nothing else escapes
        return f"raised {type(exc).__name__}: {str(exc)[:80]}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("site", list(SITES))
def test_hostile_values_raise_gvbound_errors_or_return_numbers(site):
    failures = {
        name: outcome
        for name, value in HOSTILE.items()
        if (outcome := _outcome(SITES[site], value)) is not None
    }
    assert failures == {}


# the hostile values that are integers, which a table query takes as an index
_INTEGER_VALUES = {"0", "-1", "np.int64", "10**400", "-10**400", "10**5000"}


@pytest.mark.parametrize("site", [site for site in SITES if "Table." in site])
def test_table_queries_take_integers_and_reject_the_rest_with_domain_error(site):
    # count and total skip check_sizes when every index is a plain int; any
    # other index still goes through it, to the DomainError it raised before.
    # A sticky table also raises it past its dims, where a synthesis table
    # counts zero
    returned = set()
    for name, value in HOSTILE.items():
        try:
            SITES[site](value)
        except GVBoundError as exc:
            assert type(exc) is DomainError, (name, exc)
        else:
            returned.add(name)
    beyond = {"10**400", "10**5000"} if site.startswith("sticky.") else set()
    assert returned == _INTEGER_VALUES - beyond


@pytest.mark.parametrize("site", list(SITES))
def test_each_site_is_a_valid_call(site):
    # the sweep only means something if the call it perturbs works: each
    # site's default argument is its valid value
    result = SITES[site]()
    if isinstance(result, Iterator):
        result = list(islice(result, 2))
    assert list(_bad_numbers(result)) == []


@pytest.mark.parametrize(
    "record, fields",
    [
        (_U, {"parts": (0, -1)}),
        (_CUBIC, {"coefficients": (math.nan,)}),
        (_H, {"terms": (((0, 0), math.inf),)}),
    ],
    ids=["Composition", "RealPolynomial", "SparseMultivariatePolynomial"],
)
def test_replace_checks_the_fields_as_the_constructor_does(record, fields):
    assert record._replace() == record and type(record._replace()) is type(record)
    with pytest.raises(DomainError):
        record._replace(**fields)
