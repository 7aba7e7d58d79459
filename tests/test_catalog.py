"""Catalog registry, recipe evaluation, verification reports, wire formats."""

import contextlib
import io
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries.catalog import (
    EXACT_CHECKS,
    eval_recipe,
    get_record,
    load_catalog,
    run_all,
    verify,
)
from betaseries.derive import SeedIntegral, solve_seed
from betaseries.hyper import GroupedSeries, HypSeriesSpec
from betaseries.polynomials import Polynomial
from betaseries.references import pi_machin
from betaseries.wire import (
    hyp_spec_from_dict,
    hyp_spec_to_dict,
    rat_str,
    series_spec_from_dict,
    series_spec_to_dict,
)

REQUIRED_IDS = {
    "eq-1.1",
    "eq-1.2",
    "eq-2.8",
    "eq-2.9-w1-2",
    "eq-2.9-w1-3",
    "eq-2.9-w2-5",
    "eq-2.10",
    "eq-2.11",
    "eq-2.12",
    "eq-3.1-derived-w1",
    "eq-3.1-derived-w2",
    "eq-3.1-derived-w13-4",
    "eq-3.2-w1",
    "eq-3.2-w2",
    "eq-3.2-w13-4",
    "eq-3.3",
    "eq-3.6",
    "eq-3.7",
    "eq-3.8",
    "eq-3.9",
    "eq-4.2-h1-3",
    "eq-4.2-h1-4",
    "eq-4.2-h1-5",
    "eq-4.3-h1-3",
    "eq-4.3-h1-4",
    "eq-4.3-h1-5",
    "eq-4.4",
    "eq-4.5",
    "eq-5.6-grouping-m2",
    "eq-5.7-grouping-m3",
    "eq-5.8",
    "eq-5.8-hyp",
    "eq-5.9",
    "eq-5.10",
    "eq-5.11",
    "eq-5.12",
    "eq-5.13",
    "eq-5.14",
}


class TestRegistry:
    def test_required_records_present(self):
        ids = {r.id for r in load_catalog()}
        missing = REQUIRED_IDS - ids
        assert not missing, f"catalog is missing {sorted(missing)}"

    def test_sorted_and_unique(self):
        ids = [r.id for r in load_catalog()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_get_record(self):
        record = get_record("eq-1.1")
        assert record.digits == 100
        with pytest.raises(KeyError):
            get_record("eq-99.99")

    def test_every_record_is_well_formed(self):
        for record in load_catalog():
            assert record.kind in {"numeric", "duality", "exact", "grouping"}
            if record.kind == "numeric":
                assert record.lhs and record.rhs
            elif record.kind == "duality":
                series_spec_from_dict(record.series)  # must parse
            elif record.kind == "exact":
                assert record.check in EXACT_CHECKS
            elif record.kind == "grouping":
                assert isinstance(
                    hyp_spec_from_dict(record.base), HypSeriesSpec
                )


class TestRecipeEvaluator:
    def test_arithmetic(self):
        value, metas = eval_recipe(
            {"add": [{"rat": "1/3"}, {"mul": [{"rat": "2"}, {"rat": "1/3"}]}]}, 20
        )
        assert value == 1
        assert metas == []

    def test_constants_and_functions(self):
        value, _ = eval_recipe({"sqrt": {"rat": "9/4"}}, 25)
        with mp.workdps(35):
            assert abs(value - mpf(3) / 2) < mpf(10) ** -25
        value, _ = eval_recipe({"pow": [{"const": "pi"}, 2]}, 25)
        with mp.workdps(35):
            assert abs(value - pi_machin(30) ** 2) < mpf(10) ** -24

    def test_series_meta_collected(self):
        value, metas = eval_recipe({"expr": "1/(binom(2*n,n)*(2*n+1))"}, 20)
        assert len(metas) == 1
        assert metas[0].terms_used > 10

    def test_malformed_node(self):
        with pytest.raises(ValueError):
            eval_recipe({"rat": "1", "extra": "2"}, 10)
        with pytest.raises(ValueError):
            eval_recipe({"frobnicate": "1"}, 10)


class TestVerify:
    def test_eq_1_1_at_50_digits(self):
        report = verify("eq-1.1", digits=50)
        assert report.passed
        assert report.measured_rate == pytest.approx(2.51, abs=0.05)

    def test_eq_3_7(self):
        report = verify("eq-3.7", digits=30)
        assert report.passed
        assert report.terms is not None

    def test_eq_3_9(self):
        report = verify("eq-3.9", digits=30)
        assert report.passed

    def test_exact_records(self):
        for identity in ("eq-2.10", "eq-3.3", "eq-3.8"):
            report = verify(identity)
            assert report.passed
            assert report.abs_err == "0"

    def test_duality_record_reports_rates(self):
        report = verify("eq-1.1-derived", digits=25)
        assert report.passed
        assert report.predicted_rate == pytest.approx(2.5105, abs=1e-3)

    def test_grouping_record(self):
        report = verify("eq-5.6-grouping-m2", digits=30)
        assert report.passed

    @pytest.mark.parametrize("rid", ["eq-5.6-grouping-m2", "eq-5.7-grouping-m3"])
    @pytest.mark.parametrize("digits", [30, 100])
    def test_grouping_records_telescope(self, rid, digits):
        report = verify(rid, digits=digits)
        assert report.passed
        assert report.detail.startswith("exact partial sums n<=50 match; rates base ")

    def test_summary_schema(self):
        report = verify("eq-3.2-w1", digits=15)
        doc = report.summary()
        assert list(doc.keys()) == [
            "id",
            "status",
            "lhs",
            "rhs",
            "abs_err",
            "terms",
            "measured_rate",
        ]


class TestCatalogWideInvariants:
    def test_predicted_vs_measured_rate_for_every_derived_series(self):
        # past the first 10 terms the fitted slope agrees with log10(|z|/M)
        from betaseries.engine import evaluate_derived, predicted_rate, to_mpf
        from betaseries.hyper import measured_rate
        from scratch_terms import derived_term, partial_sums

        for record in load_catalog():
            if record.kind != "duality":
                continue
            ds = series_spec_from_dict(record.series)
            rate = predicted_rate(ds)
            digits = int(rate * 20) + 8  # enough terms to leave the window
            result = evaluate_derived(ds, digits)
            reference = evaluate_derived(ds, digits + 15)
            # the exact partial sums of the terms used, times the prefactor
            terms = [derived_term(ds, n) for n in range(result.terms_used)]
            with mp.workdps(digits + 30):
                pref = mp.beta(to_mpf(ds.a + 1), to_mpf(ds.b + 1)) / to_mpf(ds.z)
                partials = [pref * to_mpf(s) for s in partial_sums(terms)]
                fitted = measured_rate(partials[10:], reference.value)
            assert fitted == pytest.approx(rate, abs=0.05), record.id

    def test_every_catalog_expression_matches_python_eval(self):
        # an oracle that shares no code with the parser: Python evaluates the
        # same text, with '^' as '**', exact Fraction literals and n, and
        # fact/binom from the math module
        import math
        import re

        from betaseries.expressions import evaluate, parse_term_expr

        expressions = []

        def collect(node):
            if not isinstance(node, dict) or len(node) != 1:
                return
            (key, arg), = node.items()
            if key == "expr":
                expressions.append(arg)
            elif isinstance(arg, dict):
                collect(arg)
            elif isinstance(arg, list):
                for child in arg:
                    collect(child)

        for record in load_catalog():
            collect(record.lhs)
            collect(record.rhs)
        assert len(expressions) >= 20

        def index(x):
            assert x.denominator == 1 and x >= 0
            return int(x)

        def poch(x, m):
            value = F(1)
            for j in range(index(m)):
                value *= x + j
            return value

        names = {
            "F": F,
            "fact": lambda x: F(math.factorial(index(x))),
            "binom": lambda a, b: F(math.comb(index(a), index(b))),
            "poch": poch,
        }
        for text in expressions:
            # '^' associates left, Python's '**' right: no chain may differ
            flat = "".join(text.split())
            while "(" in flat:
                flat = re.sub(r"\w*\([^()]*\)", "A", flat)
            assert not re.search(r"\^\w+\^", flat), text
            code = re.sub(r"\d+", r"F(\g<0>)", text).replace("^", "**")
            ast = parse_term_expr(text)
            for n in range(40):
                expected = eval(code, dict(names, n=F(n)))
                assert evaluate(ast, n) == expected, (text, n)


class TestRunAll:
    def test_filtered_run(self):
        summary = run_all(digits=12, only="eq-3.*")
        assert summary["failed"] == 0
        assert summary["total"] >= 8
        ids = [r["id"] for r in summary["records"]]
        assert ids == sorted(ids)
        assert all(i.startswith("eq-3.") for i in ids)

    def test_weak_tolerance_run(self):
        summary = run_all(digits=6, only="eq-2.*")
        assert summary["failed"] == 0

    @staticmethod
    def _stdout(argv):
        from betaseries import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    def test_stdout_does_not_depend_on_the_caches(self):
        # a warm run against one after both memos are emptied: the kept
        # integrals, reference sums and tables, and the interned cores
        from betaseries import cores, references

        argv = ["verify", "--all", "--digits", "30"]
        self._stdout(argv)
        warm = self._stdout(argv)
        assert references._cache and cores.interned.cache_info().currsize
        references._cache.clear()
        cores.interned.cache_clear()
        assert self._stdout(argv) == warm

    def test_each_core_builds_its_leaf_forms_once(self, monkeypatch):
        # over two commands from empty memos, leaf_forms runs once per
        # distinct core, each summed, and never in the second
        from betaseries import cores, references

        leaf_forms, built = cores.leaf_forms, []

        def spy(ratio, weight):
            built.append(ratio)
            return leaf_forms(ratio, weight)

        monkeypatch.setattr(cores, "leaf_forms", spy)
        references._cache.clear()
        cores.interned.cache_clear()
        first = self._stdout(["verify", "--all"])
        count = len(built)
        assert self._stdout(["verify", "--all"]) == first
        assert len(built) == count == cores.interned.cache_info().currsize


class TestWireFormats:
    def test_rat_str(self):
        assert rat_str(F(-48)) == "-48"
        assert rat_str(F(1, 3)) == "1/3"

    def test_series_spec_roundtrip(self):
        seed = SeedIntegral(a=F(-1, 2), b=F(0), p=Polynomial([1, F(1, 3)]))
        ds = solve_seed(seed, 1, 2)
        doc = series_spec_to_dict(ds)
        assert doc["z"] == "-48"
        assert doc["qcoeffs"] == ["-48", "15", "-3"]
        again = series_spec_from_dict(doc)
        assert again == ds
        assert series_spec_to_dict(again) == doc

    def test_hyp_spec_roundtrip(self):
        spec = HypSeriesSpec(
            upper=(F(1), F(1, 2)), lower=(F(3, 2), F(3, 2)), z=F(1, 4)
        )
        doc = hyp_spec_to_dict(GroupedSeries(spec, 2))
        grouped = hyp_spec_from_dict(doc)
        assert isinstance(grouped, GroupedSeries)
        assert grouped.base == spec and grouped.m == 2
        assert hyp_spec_to_dict(grouped) == doc
        plain = hyp_spec_from_dict(hyp_spec_to_dict(spec))
        assert plain == spec
