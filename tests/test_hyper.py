"""Grouping transform: exact telescoping, printed-form matches, rates."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries import hyper
from betaseries.catalog import load_catalog
from betaseries.engine import evaluate_expr, sum_terms
from betaseries.expressions import evaluate, parse_term_expr
from betaseries.hyper import (
    GroupingError,
    HypSeriesSpec,
    eval_hyp,
    first_mismatch,
    group,
    hyp_rate,
    verify_grouping,
)
from betaseries.polynomials import Polynomial, quotient
from betaseries.references import ln2_series
from betaseries.wire import hyp_spec_from_dict
from scratch_terms import grouped_term, hyp_term, pochhammer_ratio

def fraction_first_mismatch(base, grouped, m, count):
    """``first_mismatch`` on ``Fraction`` partial sums of the cores' terms."""
    base_sums = itertools.accumulate(base.terms())
    grouped_sums = itertools.accumulate(grouped.terms())
    for n in range(count + 1):
        if next(grouped_sums) != list(itertools.islice(base_sums, m))[-1]:
            return n
    return None


def weight_at(core, n):
    """The core's weight ``A(n) / B(n)``."""
    return quotient(*core.weight, n)


CATALAN_BASE = HypSeriesSpec(
    upper=(F(1), F(1, 2)), lower=(F(3, 2), F(3, 2)), z=F(1, 4)
)
#: the ``hyp`` side of eq-4.4
EQ_4_4 = HypSeriesSpec(upper=(F(2, 3),), lower=(F(7, 6),), z=F(-1, 8))


def _catalog_hyp_specs():
    """Every hyp spec of the catalog: the ``hyp`` sides and grouping bases."""
    specs = []
    for record in load_catalog():
        if record.kind == "grouping":
            specs.append(pytest.param(record.base, id=record.id))
        elif isinstance(record.lhs, dict) and "hyp" in record.lhs:
            specs.append(pytest.param(record.lhs["hyp"], id=record.id))
    return specs


CATALOG_HYP_SPECS = _catalog_hyp_specs()


class TestSpecValidation:
    def test_mismatched_parameters(self):
        with pytest.raises(ValueError):
            HypSeriesSpec(upper=(F(1),), lower=(F(1), F(2)), z=F(1, 2))

    def test_nonpositive_integer_lower(self):
        with pytest.raises(ValueError, match="nonpositive integer"):
            HypSeriesSpec(upper=(F(1),), lower=(F(-2),), z=F(1, 2))

    def test_argument_outside_disk(self):
        with pytest.raises(ValueError, match="diverges"):
            HypSeriesSpec(upper=(F(1),), lower=(F(2),), z=F(3, 2))

    def test_unit_argument_needs_balance(self):
        with pytest.raises(ValueError, match="not geometrically convergent"):
            HypSeriesSpec(upper=(F(1),), lower=(F(3, 2),), z=F(1))
        # rejected even where sum(lower) - sum(upper) = 2.5 - 0.5 > 1
        with pytest.raises(ValueError, match=r"^\|z\| = 1: not geometrically"):
            HypSeriesSpec(upper=(F(1, 2),), lower=(F(5, 2),), z=F(1))

    def test_zero_step_rejected(self):
        with pytest.raises(GroupingError):
            group(CATALAN_BASE, 0)


class TestTermRecurrences:
    def test_base_terms_match_scratch(self):
        gen = CATALAN_BASE.terms()
        for n in range(20):
            assert next(gen) == hyp_term(CATALAN_BASE, n)

    def test_base_terms_are_central_binomial(self):
        # (1)_n (1/2)_n / ((3/2)_n)^2 (1/4)^n == 1 / ((2n+1)^2 C(2n,n))
        expr = parse_term_expr("1/((2*n+1)^2*binom(2*n,n))")
        gen = CATALAN_BASE.terms()
        for n in range(20):
            assert next(gen) == evaluate(expr, n)

    def test_grouped_terms_match_scratch(self):
        for m in (2, 3):
            grouped = group(CATALAN_BASE, m)
            gen = grouped.terms()
            for n in range(12):
                assert next(gen) == grouped_term(grouped, n)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("doc", CATALOG_HYP_SPECS)
    def test_catalog_grouped_terms_match_scratch(self, doc, m):
        grouped = group(hyp_spec_from_dict(doc), m)
        gen = grouped.terms()
        for n in range(12):
            assert next(gen) == grouped_term(grouped, n)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("doc", CATALOG_HYP_SPECS)
    def test_catalog_ratio_and_weight_match_pochhammer_pairs(self, doc, m):
        # integer forms against one pochhammer_pair per symbol and step
        base = hyp_spec_from_dict(doc).core
        core = group(hyp_spec_from_dict(doc), m).core
        for n in range(60):
            assert core.ratio(n) == pochhammer_ratio(core, n)
            weight, piece = 0, F(1)
            for j in range(m):
                weight += piece
                piece *= pochhammer_ratio(base, m * n + j)
            assert weight_at(core, n) == weight


class TestExactTelescoping:
    @pytest.mark.parametrize("m", [2, 3])
    def test_partial_sums_match(self, m):
        grouped = group(CATALAN_BASE, m)
        base_gen = CATALAN_BASE.terms()
        base_partials = []
        acc = F(0)
        for _ in range(m * 51):
            acc += next(base_gen)
            base_partials.append(acc)
        gacc = F(0)
        ggen = grouped.terms()
        for n in range(51):
            gacc += next(ggen)
            assert gacc == base_partials[m * (n + 1) - 1]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_split_sums_match(self, m):
        grouped = group(CATALAN_BASE, m).core
        assert first_mismatch(CATALAN_BASE.core, grouped, m, 50) is None

    @pytest.mark.parametrize("k", [0, 1, 5, 17])
    @pytest.mark.parametrize("m", [2, 3])
    def test_perturbed_weight_fails_where_fractions_do(self, m, k):
        # the weight times 1 + n (n-1) ... (n-k+1): unchanged below n = k
        grouped = CATALAN_BASE.core.grouped(m)
        top, bottom = grouped.weight
        bump = Polynomial.one() + math.prod(
            (Polynomial((-i, 1)) for i in range(k)), start=Polynomial.one()
        )
        top = tuple(int(c) for c in (Polynomial(top) * bump).coeffs)
        perturbed = dataclasses.replace(grouped, weight=(top, bottom))
        assert first_mismatch(CATALAN_BASE.core, perturbed, m, 50) == k
        assert fraction_first_mismatch(CATALAN_BASE.core, perturbed, m, 50) == k

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_ending_base_passes(self, m):
        # (-3)_n ends the terms after n = 3; later partial sums stay put
        base = HypSeriesSpec(upper=(F(-3), F(1, 2)), lower=(F(1, 2), F(5, 3)), z=F(1, 3))
        assert first_mismatch(base.core, group(base, m).core, m, 10) is None

    def test_grouped_core_is_kept(self):
        core = HypSeriesSpec(upper=(F(1, 2),), lower=(F(3, 2),), z=F(1, 4)).core
        assert core.grouped(1) is core
        assert core.grouped(3) is core.grouped(3)
        assert core.grouped(2) is not core.grouped(3)

    def test_m1_is_identity(self):
        grouped = group(CATALAN_BASE, 1)
        base_gen = CATALAN_BASE.terms()
        ggen = grouped.terms()
        for _ in range(25):
            assert next(ggen) == next(base_gen)


class TestPrintedForms:
    def test_m2_matches_printed_quadratic_summand(self):
        # grouped term n equals (40n^2+54n+19)/(2 ((4n+1)(4n+3))^2 C(4n,2n))
        expr = parse_term_expr(
            "(40*n^2+54*n+19)/(2*((4*n+1)*(4*n+3))^2*binom(4*n,2*n))"
        )
        grouped = group(CATALAN_BASE, 2)
        gen = grouped.terms()
        for n in range(11):
            assert next(gen) == evaluate(expr, n)

    def test_m3_matches_printed_quartic_summand(self):
        # 4 * grouped term n equals the printed sextuple-binomial summand
        expr = parse_term_expr(
            "(6804*n^4+17172*n^3+15903*n^2+6405*n+956)"
            "/(((6*n+1)*(6*n+3)*(6*n+5))^2*binom(6*n,3*n))"
        )
        grouped = group(CATALAN_BASE, 3)
        gen = grouped.terms()
        for n in range(11):
            assert 4 * next(gen) == evaluate(expr, n)

    def test_m2_quarter_parameters_match_gamma_summand(self):
        # 144 * grouped((1/4,3/4;1,1;1/9), 2) term == printed (5.13) summand
        base = HypSeriesSpec(
            upper=(F(1, 4), F(3, 4)), lower=(F(1), F(1)), z=F(1, 9)
        )
        expr = parse_term_expr(
            "(640*n^2+608*n+147)*fact(8*n)/(fact(2*n+1)^2*fact(4*n)*24^(4*n))"
        )
        gen = group(base, 2).terms()
        for n in range(9):
            assert 144 * next(gen) == evaluate(expr, n)

    def test_m2_eighth_parameters_match_gamma_summand(self):
        # 128 * grouped((1/4,1/4;1,1;-1/8), 2) term == corrected (5.14) summand
        base = HypSeriesSpec(
            upper=(F(1, 4), F(1, 4)), lower=(F(1), F(1)), z=F(-1, 8)
        )
        expr = parse_term_expr(
            "(448*n^2+496*n+127)*(poch(1/8,n)*poch(5/8,n)/(2^n*fact(2*n+1)))^2"
        )
        gen = group(base, 2).terms()
        for n in range(9):
            assert 128 * next(gen) == evaluate(expr, n)

    def test_m2_inner_weight_reduces_to_bracket(self):
        # for q=2 the inner weight is z(x1+2n)(x2+2n)/((y1+2n)(y2+2n)) + 1
        grouped = group(CATALAN_BASE, 2)
        x1, x2 = CATALAN_BASE.upper
        y1, y2 = CATALAN_BASE.lower
        z = CATALAN_BASE.z
        for n in range(12):
            bracket = z * (x1 + 2 * n) * (x2 + 2 * n) / (
                (y1 + 2 * n) * (y2 + 2 * n)
            ) + 1
            assert weight_at(grouped.core, n) == bracket


class TestEvaluation:
    def test_catalan_base_value(self):
        result = eval_hyp(CATALAN_BASE, 40)
        expr_result = evaluate_expr("1/((2*n+1)^2*binom(2*n,n))", 40)
        with mp.workdps(55):
            assert abs(result.value - expr_result.value) < mpf(10) ** -40

    def test_log_series(self):
        # sum z^n/(n+1) = -ln(1-z)/z; at z=1/2 this is 2 ln 2
        spec = HypSeriesSpec(upper=(F(1),), lower=(F(2),), z=F(1, 2))
        result = eval_hyp(spec, 30)
        with mp.workdps(45):
            assert abs(result.value - 2 * ln2_series(40)) < mpf(10) ** -30

    def test_grouped_value_agrees(self):
        v1 = eval_hyp(CATALAN_BASE, 35).value
        v2 = eval_hyp(group(CATALAN_BASE, 2), 35).value
        with mp.workdps(50):
            assert abs(v1 - v2) < mpf(10) ** -35


class TestVerifyGrouping:
    def test_catalan_m2(self):
        report = verify_grouping(CATALAN_BASE, 2, 40)
        assert report.passed
        assert report.grouped_rate == pytest.approx(2 * report.base_rate, abs=0.05)

    def test_m1_trivial(self):
        report = verify_grouping(CATALAN_BASE, 1, 30)
        assert report.passed
        assert report.grouped_rate == report.base_rate

    def test_sums_each_series_once(self, monkeypatch):
        calls = []

        def spy(cores, target_digits, *args, **kwargs):
            calls.append((cores[0], target_digits))
            return sum_terms(cores, target_digits, *args, **kwargs)

        monkeypatch.setattr(hyper, "sum_terms", spy)
        verify_grouping(CATALAN_BASE, 3, 40)
        assert calls == [
            (CATALAN_BASE.core, 40),
            (group(CATALAN_BASE, 3).core, 40),
        ]
        # the grouped core is the one the base core keeps
        assert calls[1][0] is CATALAN_BASE.core.grouped(3)

    @pytest.mark.parametrize("m, digits", [(2, 40), (3, 100)])
    def test_rates_are_the_sums_own(self, m, digits):
        report = verify_grouping(CATALAN_BASE, m, digits)
        assert report.base_rate == eval_hyp(CATALAN_BASE, digits).measured_rate
        assert (
            report.grouped_rate
            == eval_hyp(group(CATALAN_BASE, m), digits).measured_rate
        )

    @pytest.mark.parametrize(
        "base, m", [(EQ_4_4, 3), (CATALAN_BASE, 5)], ids=["eq-4.4", "eq-5.8"]
    )
    def test_short_sums_pass(self, base, m):
        # 8 and 6 grouped terms at 20 digits: too few for a refit from
        # 10 partial sums, enough for the sum's own fit
        report = verify_grouping(base, m, 20)
        assert report.passed, report.detail
        assert report.grouped_rate == pytest.approx(m * report.base_rate, abs=0.05)

    def test_too_few_terms_to_fit(self):
        assert eval_hyp(group(CATALAN_BASE, 9), 20).measured_rate is None
        report = verify_grouping(CATALAN_BASE, 9, 20)
        assert report.passed
        assert report.base_rate is not None and report.grouped_rate is None
        assert report.detail == "too few terms to fit both rates."

    def test_random_single_parameter_specs(self):
        rng = random.Random(41)
        for _ in range(5):
            x1 = F(rng.randint(1, 15), 8)
            y1 = F(rng.randint(1, 15), 8)
            base = HypSeriesSpec(upper=(x1,), lower=(y1,), z=F(1, 3))
            report = verify_grouping(base, 2, 30)
            assert report.passed, report.detail


class TestRates:
    def test_base_rate(self):
        assert hyp_rate(CATALAN_BASE) == pytest.approx(0.60206, abs=1e-4)

    def test_grouped_rate_multiplies(self):
        assert hyp_rate(group(CATALAN_BASE, 3)) == pytest.approx(
            3 * hyp_rate(CATALAN_BASE), abs=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("doc", CATALOG_HYP_SPECS)
    def test_catalog_grouped_rate_multiplies(self, doc, m):
        base = hyp_spec_from_dict(doc)
        assert hyp_rate(group(base, m)) == pytest.approx(
            m * hyp_rate(base), abs=1e-12
        )
