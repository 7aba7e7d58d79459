"""A sum's float bookkeeping against the code it replaced (``tests/oracles.py``).

``placement.place`` (Newton steps) must find the start that doubling and
bisection found (``oracles.place``), refusing where it refused.  Each sum
must report the same ``terms_used``, value bits and ``tail_bound`` from
either start, and a ``measured_rate`` equal, bit for bit, to the old
leaf-by-leaf sizes fitted by ``statistics.linear_regression``
(``oracles.measured_rate``).  The fit is defined by CPython 3.11's
formulas: other Pythons' ``statistics`` may round differently, so there
the rate must equal ``oracles.fit_rate_311``'s and be within ``1e-12`` of
``statistics``'.  A CI step runs ``check_bookkeeping_agreement`` on every
catalog core at 10, 100 and 1000 digits.
"""

import contextlib
import dataclasses
import math
import random
import sys
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

import oracles
from betaseries import engine, hyper, placement
from betaseries.engine import (
    DEFAULT_MAX_TERMS,
    EvaluationError,
    HypTerms,
    evaluate_derived,
    evaluate_expr,
    sum_terms,
)
from betaseries.expressions import parse_term_expr
from betaseries.hyper import eval_hyp
from betaseries.wire import hyp_spec_from_dict
from test_sum_terms_oracle import (
    DERIVED_IDS,
    ENDING,
    EQ_1_1,
    ZERO_LOWER,
    catalog_cores,
    derived,
)

#: where ``statistics.linear_regression`` is the fit's own definition
STATISTICS_IS_311 = sys.version_info[:2] == (3, 11)

NEWTON_PLACE = placement.place


def old_place(walks, room, max_terms):
    """``oracles.place`` as ``placement.place`` reports it: None for a refusal."""
    try:
        return oracles.place(walks, room, max_terms)
    except EvaluationError as error:
        assert str(error) == f"tail target not reached within {max_terms} terms"
        return None


def assert_same_fit(new, points):
    """``new`` is the old fit of ``points``: bit for bit on 3.11, else equal to
    3.11's formulas and close to this Python's ``statistics``."""
    old = oracles.fit_rate(points)
    if STATISTICS_IS_311 or old is None:
        assert new == old
    else:
        assert new == oracles.fit_rate_311(points)
        assert new == pytest.approx(old, rel=1e-12, abs=1e-15)


def assert_same_rate(new, walks, n):
    """``new`` is the old rate of the walks stopped at ``n``."""
    assert_same_fit(new, oracles.rate_points(walks, n))


@contextlib.contextmanager
def checked():
    """Every placement in the block is checked against the oracle's, and every
    ``sum_terms`` rate against the old fit."""
    real_sum, real_terms, last = engine._sum, engine.sum_terms, {}

    def place(walks, room, max_terms):
        n = NEWTON_PLACE(walks, room, max_terms)
        assert n == old_place(walks, room, max_terms)
        return n

    def spy_sum(*args):
        last["sum"] = real_sum(*args)
        return last["sum"]

    def spy_terms(*args, **kwargs):
        result = real_terms(*args, **kwargs)
        *_, n, walks = last["sum"]
        assert result.terms_used == n
        assert_same_rate(result.measured_rate, walks, n)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "place", place)
        patch.setattr(engine, "_sum", spy_sum)
        patch.setattr(engine, "sum_terms", spy_terms)
        patch.setattr(hyper, "sum_terms", spy_terms)
        yield


def outcome(run):
    """A result's exact fields, or the error it raised."""
    try:
        result = run()
    except (ArithmeticError, ValueError) as error:
        return type(error), str(error)
    if isinstance(result, hyper.GroupingReport):
        return result
    return result.value._mpf_, result.terms_used, result.tail_bound._mpf_, result.measured_rate


def assert_same_sum(run):
    """``run`` gives the same outcome from the Newton start, checked against the
    old start and rate fit, as from the old start."""
    with checked():
        new = outcome(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "place", old_place)
        old = outcome(run)
    assert new == old
    return new


def check_bookkeeping_agreement(digit_counts):
    """Every catalog core, and each derived record with its Beta prefactor,
    checked at each digit count."""
    cores = catalog_cores()
    for digits in digit_counts:
        for group in cores.values():
            assert_same_sum(lambda: sum_terms(group, digits))
        for rid in DERIVED_IDS:
            assert_same_sum(lambda: evaluate_derived(derived(rid), digits))


# --------------------------------------------------------------------------
# Every catalog core
# --------------------------------------------------------------------------


@pytest.mark.parametrize("digits", [10, 35, 105, 1000])
def test_catalog_cores_agree(digits):
    check_bookkeeping_agreement([digits])


def test_catalog_has_every_kind_of_core():
    names = catalog_cores()
    for kind in ("-derived", "-beta", "-beta-power", "-m1", "-m2", "-m3", "-expr0"):
        assert any(kind in name for name in names), kind


@pytest.mark.parametrize("digits", [35, 1000])
def test_few_closed_form_evaluations_per_sum(digits, monkeypatch):
    calls, real = [], placement.over
    monkeypatch.setattr(placement, "over", lambda *args: calls.append(1) or real(*args))
    starts = []
    monkeypatch.setattr(placement, "place", lambda *args: starts.append(1) or NEWTON_PLACE(*args))
    for group in catalog_cores().values():
        sum_terms(group, digits)
    assert len(calls) <= 5 * len(starts)


# --------------------------------------------------------------------------
# Edge cases
# --------------------------------------------------------------------------

EDGE_EXPRESSIONS = {
    "ending": "5*0^n",
    "rise-then-fall": "poch(100,n)/fact(n)*(1/2)^n",
    "three-products": "(1/2)^n + (1/3)^n/(n+1) + fact(n)/fact(2*n)",
    "two-products-one-ending": "binom(5,n)*2^n + fact(n)/(fact(2*n)*(-3)^n)",
    "zero-weight": "(n-3)*(n-5)/2^n",
}


@pytest.mark.parametrize("digits", [1, 10, 35, 105, 1000])
@pytest.mark.parametrize("name", sorted(EDGE_EXPRESSIONS))
def test_edge_expressions_agree(name, digits):
    assert_same_sum(lambda: evaluate_expr(EDGE_EXPRESSIONS[name], digits))


def test_multi_product_expressions_are_several_cores():
    assert len(parse_term_expr(EDGE_EXPRESSIONS["three-products"])) == 3
    assert len(parse_term_expr(EDGE_EXPRESSIONS["two-products-one-ending"])) == 2


@pytest.mark.parametrize("digits", [10, 35, 105, 1000])
@pytest.mark.parametrize(
    "upper, lower", [("1", "-5/2"), ("1", "-41/2"), ("1", "-1000.5"), ("-3", "-21/2")]
)
def test_tail_bounds_that_start_late_agree(upper, lower, digits):
    # no tail bound holds before n0 = floor(-lower) + 1, where the search
    # starts, unless the terms end before it: (-3)_n is 0 from n = 4 on
    spec = hyp_spec_from_dict({"upper": [upper], "lower": [lower], "z": "1/2"})
    assert spec.core.tail_forms[0] > 1
    assert_same_sum(lambda: eval_hyp(spec, digits))


@pytest.mark.parametrize("digits", [10, 35, 105])
@pytest.mark.parametrize("core", [ENDING, ZERO_LOWER], ids=["ending", "zero-lower"])
def test_cores_that_end_or_divide_by_zero_agree(core, digits):
    assert_same_sum(lambda: sum_terms([core], digits))
    assert_same_sum(lambda: sum_terms([core, dataclasses.replace(core, c=F(1, 3))], digits))


@pytest.mark.parametrize("max_terms", [1, 5, 60, 88, 91, 92, 93, 96, 101, 120])
def test_term_caps_agree(max_terms):
    # the tail of 2^-n from term m over 10^-30 is 2^(100.66 - m): refused up to m = 92
    geometric = HypTerms(F(1), F(1, 2), (), ())
    assert_same_sum(lambda: sum_terms([geometric], 30, max_terms=max_terms))


def test_runaway_requests_are_refused_alike():
    result = assert_same_sum(lambda: evaluate_expr(EQ_1_1, 300_000))
    assert result == (EvaluationError, f"tail target not reached within {DEFAULT_MAX_TERMS} terms")
    spec = hyp_spec_from_dict({"upper": ["1"], "lower": ["-200000.5"], "z": "1/2"})
    result = assert_same_sum(lambda: eval_hyp(spec, 30))
    assert result == (EvaluationError, "no tail bound before term 200001 of 100000")


def test_grouping_rates_agree():
    spec = hyp_spec_from_dict({"upper": ["1/2"], "lower": ["3/2"], "z": "-1/4"})
    for m in (2, 3):
        assert_same_sum(lambda: hyper.verify_grouping(spec, m, 300))


# --------------------------------------------------------------------------
# The fit
# --------------------------------------------------------------------------


def random_points(rng):
    count = rng.choice([0, 1, 2, 3, 4, rng.randrange(5, 400)])
    xs = sorted(rng.sample(range(rng.randrange(0, 10**6), 10**6 + 10**5), count))
    scale = 10.0 ** rng.randrange(-3, 7)
    slope = rng.uniform(-40, 1)
    ys = [slope * x / 1000 + scale * rng.uniform(-1, 1) for x in xs]
    return xs, ys


def test_fit_agrees_on_random_points():
    rng = random.Random(2024)
    for _ in range(1000):
        xs, ys = random_points(rng)
        assert_same_fit(engine._fit_rate(xs, ys), list(zip(xs, ys)))


def test_fit_of_a_line_is_its_slope():
    xs = list(range(10, 30))
    assert engine._fit_rate(xs, [-2.0 * x for x in xs]) == 2 * math.log10(2)
    assert engine._fit_rate([1, 2], [0.0, 1.0]) is None


def test_measured_rate_of_partial_sums_agrees():
    # partial sums of sum 9^-n / n! at 60 digits against their limit
    with mp.workdps(60):
        terms = [mpf(1) / (9**n * math.factorial(n)) for n in range(40)]
        sums = [sum(terms[: n + 1]) for n in range(40)]
        reference = mp.exp(mpf(1) / 9)
        points = [(i, hyper._log2(d)) for i, s in enumerate(sums) if (d := abs(s - reference))]
        assert_same_fit(hyper.measured_rate(sums, reference), points[len(points) // 2 :])
        constant = [sums[5]] * 12 + [reference] * 3
        points = [(i, hyper._log2(d)) for i, s in enumerate(constant) if (d := abs(s - reference))]
        assert_same_fit(hyper.measured_rate(constant, reference), points[len(points) // 2 :])
