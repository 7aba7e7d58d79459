"""CLI smoke tests: subcommands, wire output, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*argv, check=False):
    # the child imports the package from this checkout, as the tests do
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=check,
        env=env,
    )


def run_cli(*argv, check=False):
    return run_python("-m", "betaseries", *argv, check=check)


class TestDerive:
    def test_arcsine_seed(self):
        proc = run_cli(
            "derive", "--p", "1,1/3", "--a", "-1/2", "--b", "0", "--k", "1", "--s", "2"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["z"] == "-48"
        assert doc["qcoeffs"] == ["-48", "15", "-3"]
        assert doc["seed_p_coeffs"] == ["1", "1/3"]

    def test_param_seed(self):
        proc = run_cli("derive", "--p", "0:1,-1,1", "--k", "3", "--s", "3", "--param")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc == {
            "a": "0",
            "b": "0",
            "k": 3,
            "s": 3,
            "z_w_coeffs": ["0", "0", "0", "1"],
            # Q = x^4 - 2x^3 + (1 - w)x^2 + wx + w^2
            "qcoeffs_w": [["0", "0", "1"], ["0", "1"], ["1", "-1"], ["-2"], ["1"]],
            "seed_p_w": [["0", "1"], ["-1"], ["1"]],
        }

    def test_underivable_seed_fails_cleanly(self):
        proc = run_cli("derive", "--p", "1,0,1", "--k", "1", "--s", "1")
        assert proc.returncode == 1
        assert "not divisible" in proc.stderr

    def test_underivable_param_seed_fails_cleanly(self):
        proc = run_cli(
            "derive", "--p", "0:1,0,0,1", "--k", "1", "--s", "1", "--param"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "no polynomial z(w)" in proc.stderr


class TestEval:
    def test_expr(self):
        proc = run_cli(
            "eval", "--expr", "1/(binom(2*n,n)*(2*n+1))", "--digits", "25"
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["value"].startswith("1.2091995761561452337293")
        assert doc["terms"] > 10

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        derive = run_cli(
            "derive", "--p", "1,1/3", "--a", "-1/2", "--b", "0", "--k", "1",
            "--s", "2", check=True,
        )
        spec.write_text(derive.stdout)
        proc = run_cli("eval", "--spec", str(spec), "--digits", "30")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        # pi sqrt(3) / 3
        assert doc["value"].startswith("1.81379936423421785")

    @pytest.mark.parametrize("expr", ["-(1/2)^n", "-n*(1/2)^n"])
    def test_expr_may_start_with_a_minus(self, expr):
        # argparse alone reads a value that starts with "-" as an option
        proc = run_cli("eval", "--expr", expr, "--digits", "5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "-2.0000"

    @pytest.mark.parametrize(
        "expr, value, terms",
        [
            ("binom(n,5)*(1/2)^n", "2.0000000000000000000", None),
            (
                "(n-3)*(n-4)*(n-5)*(n-6)*(n-7)*(1/2)^n",
                "-2880.0000000000000000",
                None,
            ),
            ("binom(5,n)*2^n", "243.00000000000000000", 6),
            ("n-n", "0.0", 0),
        ],
    )
    def test_zero_terms_do_not_end_the_sum(self, expr, value, terms):
        proc = run_cli("eval", "--expr", expr, "--digits", "20")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["value"] == value
        if terms is not None:
            assert doc["terms"] == terms

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("fact(n)^2/fact(n+60)^2*1000^n", "-> 1000 > 1: diverges"),
            ("1/(n+1)^2", "not geometrically convergent"),
        ],
    )
    def test_ratio_limit_checked_before_summing(self, expr, message):
        proc = run_cli("eval", "--expr", expr, "--digits", "20")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "source, power",
        [
            (("--expr", "poch(100,n)/fact(n)*(1/2)^n"), 100),
            (("--spec", {"upper": ["20"], "lower": ["1"], "z": "1/2"}), 20),
        ],
        ids=["expr", "spec"],
    )
    def test_growth_phase_is_summed(self, tmp_path, source, power):
        # sum (x)_n / n! 2^-n = 2^x: the terms grow for about x terms first
        flag, arg = source
        if flag == "--spec":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(arg))
            arg = str(spec)
        proc = run_cli("eval", flag, arg, "--digits", "30")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["value"] == mp.nstr(mpf(2) ** power, 30, strip_zeros=False)
        assert float(doc["tail_bound"]) < 1e-30

    def test_unit_argument_is_refused(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"upper": ["1/2"], "lower": ["5/2"], "z": "1"}))
        for argv in (("eval", "--digits", "10", "--spec"), ("rate", "--spec")):
            proc = run_cli(*argv, str(spec))
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert proc.stderr.strip() == "error: |z| = 1: not geometrically convergent"

    def test_requires_exactly_one_input(self):
        assert run_cli("eval", "--digits", "10").returncode == 2
        proc = run_cli("eval", "--digits", "10", "--expr", "1", "--spec", "x.json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not allowed with argument" in proc.stderr


class TestRateAndIntegrate:
    def test_rate_of_derived_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        derive = run_cli(
            "derive", "--p", "1,1/3", "--a", "-1/2", "--b", "0", "--k", "1",
            "--s", "2", check=True,
        )
        spec.write_text(derive.stdout)
        proc = run_cli("rate", "--spec", str(spec))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["predicted_rate"] == pytest.approx(
            2.5105, abs=1e-3
        )

    def test_rate_of_expression_spec_is_refused(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"expr": "(1/2)^n"}))
        proc = run_cli("rate", "--spec", str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == (
            "error: rate --spec takes a derived or hypergeometric spec, not an expression"
        )

    def test_integrate_beta(self):
        proc = run_cli("integrate", "--a", "-1/2", "--b", "-1/2", "--digits", "25")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"].startswith("3.14159265358979323846")

    def test_integrate_kernel(self):
        proc = run_cli(
            "integrate", "--a", "-1/2", "--b", "0", "--num", "16,-5,1",
            "--kernel", "-48,1,2", "--digits", "20",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"].startswith("-0.604599788078")

    def test_integrate_near_pole(self):
        # a complex pole pair 1/2 +- i/100 next to [0, 1]
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--p", "2501/10000,-1,1",
            "--digits", "20",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "310.15979856434921723"

    def test_integrate_stops_at_its_budget(self):
        # the pole pair at 1/2 +- i/1000 needs more nodes than the budget
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--p", "250001/1000000,-1,1",
            "--digits", "20",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: no convergence to 20 digits within the quadrature budget "
            "of 32768 nodes\n"
        )

    def test_integer_valued_print_has_no_trailing_point(self):
        # 10^20 ln 2 = 69314718055994530941.72...: all 20 digits are integer digits
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--num", "100000000000000000000",
            "--p", "1,1", "--digits", "20",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "69314718055994530942"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--expr", "(1/100000)*0^n", "--digits", "1"),
            ("integrate", "--a", "0", "--b", "0", "--p", "100000", "--digits", "1"),
        ],
        ids=["eval", "integrate"],
    )
    def test_one_digit_print_has_no_bare_point(self, argv):
        # 10^-5 to one significant digit prints in exponent form
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "1e-5"

    def test_integrate_rejects_two_denominators(self):
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--p", "1,1",
            "--kernel", "-2,1,1", "--digits", "10",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not allowed with argument" in proc.stderr


class TestAccelerate:
    def test_group_spec(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        hyp.write_text(
            json.dumps({"upper": ["1", "1/2"], "lower": ["3/2", "3/2"], "z": "1/4"})
        )
        proc = run_cli("accelerate", "--hyp", str(hyp), "--m", "2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["m"] == 2 and doc["z"] == "1/4"

    def test_outputs_are_read_back(self, tmp_path):
        # derive's and accelerate's JSON are specs that eval and rate accept
        hyp = tmp_path / "hyp.json"
        hyp.write_text(json.dumps({"upper": ["1", "1/2"], "lower": ["3/2", "3/2"], "z": "1/4"}))
        grouped = run_cli("accelerate", "--hyp", str(hyp), "--m", "3", check=True).stdout
        derived = run_cli(
            "derive", "--p", "1,1/3", "--a", "-1/2", "--b", "0", "--k", "1", "--s", "2",
            check=True,
        ).stdout
        # 3 log10(4) and log10(48 / M(1, 2)) = log10(324)
        for text, rate in ((grouped, 1.8062), (derived, 2.5105)):
            spec = tmp_path / "spec.json"
            spec.write_text(text)
            proc = run_cli("rate", "--spec", str(spec))
            assert proc.returncode == 0
            assert json.loads(proc.stdout) == {"predicted_rate": rate}
            assert run_cli("eval", "--digits", "10", "--spec", str(spec)).returncode == 0

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_step_below_one_is_a_usage_error(self, tmp_path, m):
        hyp = tmp_path / "hyp.json"
        hyp.write_text(json.dumps({"upper": ["1"], "lower": ["2"], "z": "1/2"}))
        proc = run_cli("accelerate", "--hyp", str(hyp), "--m", m)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--m: must be a positive integer" in proc.stderr


class TestVerify:
    def test_single_identity(self):
        proc = run_cli("verify", "--id", "eq-3.3")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["status"] == "PASS"

    def test_unknown_identity(self):
        # a usage error, as --only with no match is
        proc = run_cli("verify", "--id", "eq-0.0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "betaseries verify: error: --id 'eq-0.0' matches no record id" in proc.stderr

    def test_filtered_all(self):
        proc = run_cli("verify", "--all", "--only", "eq-3.2*", "--digits", "10")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["failed"] == 0
        assert {r["id"] for r in doc["records"]} == {
            "eq-3.2-w1",
            "eq-3.2-w13-4",
            "eq-3.2-w2",
        }

    def test_filter_that_matches_nothing_is_a_usage_error(self):
        # a mistyped pattern used to print "total": 0 and exit 0
        proc = run_cli("verify", "--all", "--only", "eq-9.*", "--digits", "10")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "betaseries verify: error: --only 'eq-9.*' matches no record id" in proc.stderr

    def test_all_at_few_digits(self):
        # grouping records at 10 digits sum only a few grouped terms
        proc = run_cli("verify", "--all", "--digits", "10")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["passed"], doc["total"]) == (47, 47)
        assert {r["status"] for r in doc["records"]} == {"PASS"}

    def test_requires_id_or_all(self):
        assert run_cli("verify").returncode == 2
        proc = run_cli("verify", "--id", "eq-1.1", "--all")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "not allowed with argument" in proc.stderr
        # --only filters --all; with --id it used to be ignored silently
        proc = run_cli(
            "verify", "--id", "eq-3.3", "--only", "eq-5.*", "--digits", "10"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "betaseries verify: error: --only" in proc.stderr


class TestUsage:
    @pytest.mark.parametrize("digits", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--expr", "2^(-n)"),
            ("integrate", "--a", "0", "--b", "0"),
            ("verify", "--id", "eq-1.1"),
        ],
        ids=["eval", "integrate", "verify"],
    )
    def test_digits_below_one_is_a_usage_error(self, argv, digits):
        proc = run_cli(*argv, "--digits", digits)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--digits: must be a positive integer" in proc.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("integrate", "--a", "0", "--b", "0", "--num", "1,,2"), "--num"),
            (("integrate", "--a", "0", "--b", "0", "--num", "1,2,"), "--num"),
            (("integrate", "--a", "x", "--b", "0"), "--a"),
            (("integrate", "--a", "0", "--b", "1/0"), "--b"),
            (("integrate", "--a", "0", "--b", "0", "--p", "1,1.5x"), "--p"),
            (("integrate", "--a", "0", "--b", "0", "--kernel", "1/2,1.5,2"), "--kernel"),
            (("integrate", "--a", "0", "--b", "0", "--kernel", "-48,1"), "--kernel"),
            (("derive", "--p", "1,,1/3", "--k", "1", "--s", "2"), "--p"),
            (("derive", "--p", "1,1/3", "--a", "1/2x", "--k", "1", "--s", "2"), "--a"),
            (("derive", "--p", "1,1/3", "--b", "x", "--k", "1", "--s", "2"), "--b"),
            (("derive", "--p", "0:1,-1,x", "--k", "3", "--s", "3", "--param"), "--p"),
        ],
    )
    def test_malformed_number_is_a_usage_error(self, argv, flag):
        if argv[0] == "integrate":
            argv += ("--digits", "10")
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument {flag}:" in proc.stderr

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("1 + * 2", "syntax error at 1:5"),
            ("fact(n/2)", "semantic error at 1:1"),
            ("n/0", "semantic error at 1:2: division by zero"),
            ("1/(2^n+1)", "semantic error at 1:2: not hypergeometric"),
            ("(1/2)^n*(n+2^n)^(-1)", "semantic error at 1:16: not hypergeometric"),
        ],
        ids=["syntax", "semantic", "zero-divisor", "sum-divisor", "sum-power"],
    )
    def test_malformed_expr_is_a_usage_error(self, expr, message):
        proc = run_cli("eval", "--expr", expr, "--digits", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument --expr: {message}" in proc.stderr

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("(1/2)^n/(n-1)^2", "error: division by zero at n=1"),
            ("(1/2)^n*(1 + (n-2)^(-1))", "error: division by zero at n=2"),
            ("(1/2)^n/poch(-2,n)", "error: division by zero at n=3"),
            ("(1/2)^n/poch(-7,n) + (1/3)^n/(n-5)", "error: division by zero at n=5"),
            ("(1/3)^n/(n-5) + (1/2)^n/poch(-7,n)", "error: division by zero at n=5"),
        ],
        ids=["division", "power", "lower-symbol", "symbol-first", "weight-first"],
    )
    def test_zero_at_an_index_is_a_failure_without_position(self, expr, message):
        # the zero is found only when evaluating term n: no source position.
        # The series are geometric, so that they pass the ratio check first
        proc = run_cli("eval", "--expr", expr, "--digits", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == message

    def test_empty_coefficient_is_not_dropped(self):
        # 1 + 0x + 2x^2 integrates to 5/3; dropping the empty field gave 1 + 2x
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--num", "1,0,2", "--digits", "10"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "1.666666667"

    def test_domain_error_is_a_failure(self):
        proc = run_cli(
            "integrate", "--a", "0", "--b", "0", "--kernel", "1/8,1,1", "--digits", "10"
        )
        assert proc.returncode == 1
        assert "denominator has a root on [0, 1]" in proc.stderr

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            (
                ("eval", "--digits", "5", "--spec"),
                {"b": "0", "k": 1, "s": 2, "z": "1", "qcoeffs": ["1"]},
                "derived series spec is missing 'a'",
            ),
            (
                ("rate", "--spec"),
                {"a": "0", "b": "0", "k": 1, "s": 2, "qcoeffs": ["1"]},
                "derived series spec is missing 'z'",
            ),
            (
                ("accelerate", "--m", "2", "--hyp"),
                {"lower": ["2"], "z": "1/2"},
                "hypergeometric spec is missing 'upper'",
            ),
        ],
        ids=["eval", "rate", "accelerate"],
    )
    def test_spec_missing_a_field_is_named(self, tmp_path, argv, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--digits", "5", "--spec"),
            ("rate", "--spec"),
            ("accelerate", "--m", "2", "--hyp"),
        ],
        ids=["eval", "rate", "accelerate"],
    )
    @pytest.mark.parametrize("content", ["5", '["a"]'], ids=["scalar", "list"])
    def test_spec_must_be_an_object(self, tmp_path, argv, content):
        spec = tmp_path / "spec.json"
        spec.write_text(content)
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: spec file {spec} must hold a JSON object"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--digits", "5", "--spec"),
            ("rate", "--spec"),
            ("accelerate", "--m", "2", "--hyp"),
        ],
        ids=["eval", "rate", "accelerate"],
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("upper", "12", 'must be an array of rationals (strings or integers), got "12"'),
            ("lower", [True], "must be an array of rationals (strings or integers), got [true]"),
            ("z", 0.5, "must be a rational (a string or an integer), got 0.5"),
            ("z", None, "must be a rational (a string or an integer), got null"),
            ("m", 2.5, "must be an integer, got 2.5"),
        ],
        ids=["string-list", "boolean", "float", "null", "float-m"],
    )
    def test_hyp_spec_field_of_another_type_is_named(self, tmp_path, argv, field, value, message):
        # a string is not split into parameters, nor a float or bool read as an int
        doc = {"upper": ["1/2"], "lower": ["3/2"], "z": "-1/2", field: value}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: hypergeometric spec field {field!r} {message}"

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--digits", "5", "--spec"), ("rate", "--spec")],
        ids=["eval", "rate"],
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("qcoeffs", "5", 'must be an array of rationals (strings or integers), got "5"'),
            ("a", True, "must be a rational (a string or an integer), got true"),
            ("z", -48.0, "must be a rational (a string or an integer), got -48.0"),
            ("k", 1.0, "must be an integer, got 1.0"),
            ("s", 2.7, "must be an integer, got 2.7"),
        ],
        ids=["string-list", "boolean", "float", "float-k", "float-s"],
    )
    def test_derived_spec_field_of_another_type_is_named(
        self, tmp_path, argv, field, value, message
    ):
        doc = {"a": "-1/2", "b": "0", "k": 1, "s": 2, "z": "-48", "qcoeffs": ["-48", "15", "-3"]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(doc, **{field: value})))
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: derived series spec field {field!r} {message}"

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--digits", "5", "--spec"), ("rate", "--spec")],
        ids=["eval", "rate"],
    )
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                # a misspelled "m" would give the ungrouped series
                {"upper": ["1", "1/2"], "lower": ["3/2", "3/2"], "z": "1/4", "M": 3},
                "hypergeometric spec has unknown field 'M'",
            ),
            (
                {"a": "-1/2", "b": "0", "k": 1, "s": 2, "z": "-48",
                 "qcoeffs": ["-48", "15", "-3"], "seed_p": ["1", "1/3"], "digits": 5},
                "derived series spec has unknown field 'seed_p', 'digits'",
            ),
        ],
        ids=["hyp", "derived"],
    )
    def test_spec_with_an_undeclared_field_is_named(self, tmp_path, argv, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: {message}"

    def test_expression_spec_with_an_undeclared_field_is_named(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"expr": "1/2^n", "digits": 5}))
        proc = run_cli("eval", "--digits", "5", "--spec", str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == "error: expression spec has unknown field 'digits'"

    def test_expression_spec_must_be_a_string(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"expr": 5}))
        proc = run_cli("eval", "--digits", "5", "--spec", str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == "error: expression spec field 'expr' must be a string, got 5"

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--digits", "5", "--spec"), ("rate", "--spec")],
        ids=["eval", "rate"],
    )
    @pytest.mark.parametrize(
        "doc, missing",
        [({"lower": ["1"], "z": "1/2"}, "'upper'"), ({"lower": ["1"]}, "'upper', 'z'")],
        ids=["lower-z", "lower"],
    )
    def test_spec_with_lower_is_hypergeometric(self, tmp_path, argv, doc, missing):
        # "lower" names the spec's kind even without "upper"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.strip() == f"error: hypergeometric spec is missing {missing}"

    def test_help_after_a_flag(self):
        proc = run_cli("verify", "--all", "-h")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: betaseries verify")

    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 2

    def test_list(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        records = json.loads(proc.stdout)
        assert any(r["id"] == "eq-1.1" for r in records)

    def test_determinism(self):
        # identical invocations produce byte-identical stdout
        for argv in (
            ("list",),
            ("derive", "--p", "1,1/3", "--a", "-1/2", "--b", "0", "--k", "1", "--s", "2"),
            ("eval", "--expr", "1/(binom(2*n,n)*(2*n+1))", "--digits", "20"),
            ("verify", "--id", "eq-3.2-w1", "--digits", "12"),
        ):
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode == 0


def readme_block(heading, language):
    """The first ``language`` code block under README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(f"\n## {heading}\n", 1)[1].split(f"```{language}\n", 1)[1]
    return block.split("```", 1)[0]


def readme_cli_examples():
    """The ``betaseries`` lines of the sh block under README's "## CLI"."""
    return [
        shlex.split(line, comments=True)[1:]
        for line in readme_block("CLI", "sh").splitlines()
        if line.startswith("betaseries ")
    ]


class TestReadmeExamples:
    def test_block_found(self):
        commands = {argv[0] for argv in readme_cli_examples()}
        assert {"derive", "eval", "integrate", "verify", "list"} <= commands

    @pytest.mark.parametrize(
        "argv",
        [
            argv
            for argv in readme_cli_examples()
            if "--spec" not in argv and "--hyp" not in argv
        ],
        ids=" ".join,
    )
    def test_example_runs(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    proc = run_python("-c", readme_block("Library example", "python"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("2.5105")
