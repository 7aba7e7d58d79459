"""Term-expression grammar: parsing into the normal form, evaluation, errors."""

import ast
import collections
import itertools
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import betaseries
import oracles
from betaseries import cli, expressions
from betaseries.catalog import load_catalog
from betaseries.cores import HypTerms
from betaseries.expressions import (
    ExprError,
    ExprSemanticError,
    ExprSyntaxError,
    evaluate,
    parse_term_expr,
)
from betaseries.polynomials import Polynomial, integer_coefficients

EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"
ROOT = Path(__file__).resolve().parent.parent


def product(c=1, num=(), den=(), a=(1,), b=(1,)):
    """The core of one product, symbols given as ``(p, q)`` pairs in any order
    and the weight as rational coefficients ``a`` over a monic ``b``."""
    return HypTerms(
        F(1),
        F(c),
        tuple(sorted((p, F(q)) for p, q in num)),
        tuple(sorted((p, F(q)) for p, q in den)),
        integer_coefficients(Polynomial(a).coeffs, Polynomial(b).coeffs),
    )


def polynomial(coeffs):
    """The normal form of a polynomial in n."""
    return (product(a=coeffs),) if Polynomial(coeffs) else ()


class TestParsing:
    def test_eq_1_1_value_at_zero(self):
        ast_ = parse_term_expr(EQ_1_1)
        assert evaluate(ast_, 0) == F(109)

    def test_eq_1_1_value_at_two(self):
        # (4)! * 369 / ((7/6)(13/6) * (11/6)(17/6) * 1296^2)
        ast_ = parse_term_expr(EQ_1_1)
        expected = F(24 * 369) / (F(7, 6) * F(13, 6) * F(11, 6) * F(17, 6) * 1296**2)
        assert evaluate(ast_, 2) == expected

    def test_eq_1_1_is_one_product(self):
        assert parse_term_expr(EQ_1_1) == (
            product(
                F(-1, 1296),
                num=[(2, 1)],
                den=[(1, F(7, 6)), (1, F(11, 6))],
                a=(109, 130),
            ),
        )

    def test_constant(self):
        ast_ = parse_term_expr("1")
        assert ast_ == polynomial([1])
        assert evaluate(ast_, 17) == 1

    def test_binomial_power(self):
        ast_ = parse_term_expr("binom(8*n,4*n)/9^n")
        assert ast_ == (product(F(1, 9), num=[(8, 1)], den=[(4, 1), (4, 1)]),)
        assert evaluate(ast_, 1) == F(70, 9)

    def test_rational_literals_fold(self):
        assert parse_term_expr("7/6") == polynomial([F(7, 6)])
        assert parse_term_expr("-(3/4)") == polynomial([F(-3, 4)])
        assert parse_term_expr("2^3^2") == polynomial([64])  # left-associative
        assert parse_term_expr("n") == polynomial([0, 1])
        assert parse_term_expr("0") == parse_term_expr("n-n") == ()

    def test_precedence(self):
        # '^' binds tighter than unary minus: -2^2 = -(2^2)
        assert evaluate(parse_term_expr("-2^2"), 0) == -4
        assert evaluate(parse_term_expr("2+3*4"), 0) == 14
        assert evaluate(parse_term_expr("2*n^2"), 3) == 18
        assert evaluate(parse_term_expr("8/4/2"), 0) == 1  # left-assoc

    def test_whitespace_insignificant(self):
        a = parse_term_expr("fact( 2*n ) * ( 130*n + 109 )")
        b = parse_term_expr("fact(2*n)*(130*n+109)")
        assert a == b

    def test_pochhammer_structure(self):
        # poch(x, pn + q) = (x)_q (x + q)_{pn}
        ast_ = parse_term_expr("poch(7/6,2*n+1)")
        assert ast_ == (product(num=[(2, F(13, 6))], a=[F(7, 6)]),)
        assert evaluate(ast_, 1) == F(7, 6) * F(13, 6) * F(19, 6)
        assert parse_term_expr("poch(-1,n+2)") == ()  # (-1)_2 = 0

    def test_power_with_index_exponent(self):
        # c^(pn + q) = c^q (c^p)^n
        assert parse_term_expr("(-1296)^n") == (product(-1296),)
        assert parse_term_expr("2^(2*n+1)") == (product(4, a=[2]),)
        assert parse_term_expr("(1/2)^(-n)") == (product(2),)
        assert parse_term_expr("1^n") == polynomial([1])
        ast_ = parse_term_expr("(-1296)^n")
        assert evaluate(ast_, 2) == F(1296**2)
        zero = parse_term_expr("0^n")
        assert zero == (product(0),)
        assert [evaluate(zero, n) for n in range(3)] == [1, 0, 0]
        assert parse_term_expr("0^(n+1)") == ()

    def test_variable_power_constant_exponent(self):
        ast_ = parse_term_expr("(2*n+1)^2")
        assert evaluate(ast_, 3) == 49


class TestNormalForm:
    def test_factorial_is_a_symbol(self):
        # fact(pn + q) = q! (q + 1)_{pn}
        assert parse_term_expr("fact(2*n+3)") == (product(num=[(2, 4)], a=[6]),)
        assert parse_term_expr("fact(4)") == polynomial([24])

    def test_binomial_is_exactly_zero_where_it_should_be(self):
        # 1/(n-5)! = (n-4)...(n)/n!, and n!/n! cancels
        five = parse_term_expr("binom(n,5)")
        falling = Polynomial([1])
        for j in range(5):
            falling = falling * Polynomial([-j, 1])
        assert five == polynomial((falling * F(1, 120)).coeffs)
        assert [evaluate(five, n) for n in range(8)] == [0] * 5 + [1, 6, 21]
        # 1/(5-n)! = (-1)^n (-5)_n / 5!: its terms end after n = 5
        assert parse_term_expr("binom(5,n)") == (
            product(-1, num=[(1, -5)], den=[(1, 1)]),
        )
        # 1/(-n)! = (-1)^n (0)_n: 1 at n = 0, then 0
        assert parse_term_expr("binom(n,2*n)") == (
            product(-1, num=[(1, 0), (1, 1)], den=[(2, 1)]),
        )
        assert parse_term_expr("binom(n+2,n+5)") == ()

    def test_symbols_cancel(self):
        assert parse_term_expr("fact(n)/fact(n)") == polynomial([1])
        assert parse_term_expr("fact(n)^2/fact(n)") == (product(num=[(1, 1)]),)

    def test_like_products_merge(self):
        assert parse_term_expr("n*fact(n) + fact(n)") == (
            product(num=[(1, 1)], a=[1, 1]),
        )
        assert parse_term_expr("fact(n) - fact(n)") == ()
        # sums over a common denominator, made monic
        assert parse_term_expr("1/(2*n+1) + 1/(2*n+3)") == (
            product(a=[1, 1], b=[F(3, 4), 2, 1]),
        )
        # one monic denominator is kept, not squared
        assert parse_term_expr("1/(2*n+1) + 3/(4*n+2)") == (
            product(a=[F(5, 4)], b=[F(1, 2), 1]),
        )

    def test_unlike_products_stay_apart(self):
        assert parse_term_expr("2^n + 3^n") == (product(2), product(3))
        assert parse_term_expr("(2^n + 1)^2") == (
            product(4),
            product(2, a=[2]),
            product(1),
        )

    def test_catalog_summands_are_one_product(self):
        for text in catalog_expressions():
            assert len(parse_term_expr(text)) == 1, text


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_term_expr("1 + * 2")
        assert err.value.column == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_term_expr("(1 + 2")

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError, match="unknown name"):
            parse_term_expr("gamma(n)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_term_expr("1 & 2")
        # a numeric character that is not a decimal digit is part of a name
        with pytest.raises(ExprSyntaxError, match="unknown name"):
            parse_term_expr("n*²")

    def test_factorial_nonlinear_argument(self):
        with pytest.raises(ExprSemanticError, match="linear"):
            parse_term_expr("fact(n^2)")

    def test_factorial_fractional_argument(self):
        with pytest.raises(ExprSemanticError, match="integer") as err:
            parse_term_expr("fact(n/2)")
        assert (err.value.line, err.value.column) == (1, 1)

    def test_factorial_negative_argument(self):
        with pytest.raises(ExprSemanticError, match="nonnegative"):
            parse_term_expr("fact(n-3)")
        with pytest.raises(ExprSemanticError, match="nonnegative") as err:
            parse_term_expr("1 +\n fact(n-3)")
        assert (err.value.line, err.value.column) == (2, 2)

    def test_binom_nonlinear(self):
        with pytest.raises(ExprSemanticError):
            parse_term_expr("binom(n*n, n)")

    def test_poch_base_must_be_constant(self):
        with pytest.raises(ExprSemanticError, match="constant rational"):
            parse_term_expr("poch(n,2)")

    def test_variable_exponent_needs_constant_base(self):
        with pytest.raises(ExprSemanticError, match="constant rational base"):
            parse_term_expr("n^n")

    def test_fractional_constant_exponent(self):
        with pytest.raises(ExprSemanticError, match="integer"):
            parse_term_expr("2^(1/2)")

    def test_division_by_zero_constant(self):
        # a zero divisor or a zero base with a negative exponent is rejected
        # while parsing, at its operator
        for text, column in (
            ("1/0", 2),
            ("n/0", 2),
            ("(n+1)/(2-2)", 6),
            ("0^(-1)", 2),
            ("2 + 0^(n-1)", 6),
            ("n/(n-n)", 2),  # n-n folds to the constant 0
            ("(n-n)^(-1)", 6),
            ("1/0^n", 2),  # zero for every n >= 1
        ):
            with pytest.raises(ExprSemanticError, match="zero") as err:
                parse_term_expr(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_sum_of_unlike_products_cannot_divide(self):
        for text, column in (
            ("1/(2^n+1)", 2),
            ("fact(n)/(n+fact(n+1))", 8),
            ("(2^n+1)^(-2)", 8),
        ):
            with pytest.raises(ExprSemanticError, match="not hypergeometric") as err:
                parse_term_expr(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_zero_at_an_index_names_the_index(self):
        # only evaluation finds it, so it is not a semantic error with a position
        for text, n in (
            ("1/(n-1)^2", 1),
            ("(n-3)^(-2)", 3),
            ("1/poch(-2,n)", 3),
        ):
            ast_ = parse_term_expr(text)
            for i in range(n):
                evaluate(ast_, i)
            with pytest.raises(ZeroDivisionError, match=f"at n={n}$"):
                evaluate(ast_, n)


class TestPolynomialFolding:
    def test_polynomial_subexpressions_are_one_node(self):
        for text, coeffs in (
            ("2*(n+1)+n", [2, 3]),
            ("(12*n+2)/2", [1, 6]),
            ("(2*n+1)^2", [1, 4, 4]),
            ("(63*(n+1)^2-27*(n+1)+4)", [40, 99, 63]),
            ("-(n-3)", [3, -1]),
            ("3^(-2)*n", [0, F(1, 9)]),
        ):
            assert parse_term_expr(text) == polynomial(coeffs), text

    def test_other_nodes_stay(self):
        # what is not a polynomial becomes symbols, c or the denominator b
        assert parse_term_expr("fact(n)^2") == (product(num=[(1, 1), (1, 1)]),)
        assert parse_term_expr("1/(n+1)") == (product(b=[1, 1]),)
        assert parse_term_expr("2/(2*n+1)") == (product(b=[F(1, 2), 1]),)
        assert parse_term_expr("(n-3)^(-2)") == (product(b=[9, -6, 1]),)


def test_every_public_name_resolves():
    for name in betaseries.__all__:
        assert getattr(betaseries, name) is not None, name


class TestLinearForm:
    """Arguments ``c1*n + c0`` are read off the folded polynomial."""

    def test_basic(self):
        assert parse_term_expr("fact(6*n+6)") == (product(num=[(6, 7)], a=[720]),)
        assert parse_term_expr("fact((12*n+2)/2)") == (product(num=[(6, 2)]),)
        with pytest.raises(ExprSemanticError, match="linear"):
            parse_term_expr("fact(n^2)")

    def test_nested(self):
        assert parse_term_expr("fact(2*(n+1)+n)") == (product(num=[(3, 3)], a=[2]),)
        assert parse_term_expr("poch(1/2, 3*n-2*n)") == (product(num=[(1, F(1, 2))]),)


# --------------------------------------------------------------------------
# The oracle: Python evaluates the same text
# --------------------------------------------------------------------------


def catalog_expressions():
    found = []

    def collect(node):
        if isinstance(node, dict):
            for key, arg in node.items():
                if key == "expr":
                    found.append(arg)
                else:
                    collect(arg)
        elif isinstance(node, list):
            for child in node:
                collect(child)

    for record in load_catalog():
        collect(record.lhs)
        collect(record.rhs)
    return found


def _summands(strings):
    """The strings that are summands in n."""
    for text in strings:
        if not re.search(r"\bn\b", text):
            continue
        try:
            parse_term_expr(text)
        except ExprError:
            continue
        yield text


def source_expressions():
    """Every summand in the README, the tests and the benchmark's workloads."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    strings = re.findall(r'--expr "([^"]+)"', readme)
    strings += re.findall(r"`([^`\n]+)`", readme)
    for path in sorted((ROOT / "tests").glob("*.py")) + [ROOT / "bench" / "workloads.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings += [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
    return list(_summands(strings))


ORACLE_EXPRESSIONS = sorted(set(catalog_expressions()) | set(source_expressions()))


def _index(x):
    assert x.denominator == 1 and x >= 0
    return int(x)


def _poch(x, m):
    return math.prod((x + j for j in range(_index(m))), start=F(1))


_NAMES = {
    "F": F,
    "fact": lambda x: F(math.factorial(_index(x))),
    "binom": lambda a, b: F(math.comb(_index(a), _index(b))),
    "poch": _poch,
}


def python_value(text, n):
    """``text`` at ``n`` by Python's ``eval``: '^' as '**', ``Fraction`` literals."""
    code = re.sub(r"\d+", r"F(\g<0>)", text).replace("^", "**")
    return eval(code, dict(_NAMES, n=F(n)))


def _chained_power(text):
    # '^' associates left, Python's '**' right
    flat = "".join(text.split())
    while "(" in flat:
        flat = re.sub(r"\w*\([^()]*\)", "A", flat)
    return re.search(r"\^\w+\^", flat) is not None


def test_oracle_covers_every_source():
    assert len(catalog_expressions()) >= 28
    for text in (EQ_1_1, "fact(n)^2/fact(n+60)^2*1000^n", "1/(2*n+1) + 1/(2*n+3)"):
        assert text in ORACLE_EXPRESSIONS


@pytest.mark.parametrize("text", ORACLE_EXPRESSIONS)
def test_normal_form_matches_python_eval(text, monkeypatch):
    if _chained_power(text):
        pytest.skip("'^' chains associate differently in Python")
    expected = []
    for n in range(50):
        try:
            expected.append(python_value(text, n))
        except ZeroDivisionError:
            break
    expr = parse_term_expr(text)
    for n, value in enumerate(expected):
        assert evaluate(expr, n) == value, (text, n)
    if len(expected) < 50:
        with pytest.raises(ZeroDivisionError, match=f"at n={len(expected)}$"):
            evaluate(expr, len(expected))

    # the cores' recurrences, without the convergence check that rejects
    # some of these summands before their first term
    monkeypatch.setattr(HypTerms, "check_convergence", lambda self: None)
    streams = [core.terms() for core in expr]
    terms = map(sum, itertools.zip_longest(*streams, fillvalue=F(0)))
    got = list(itertools.islice(terms, len(expected)))
    assert got == expected[: len(got)], text
    assert all(value == 0 for value in expected[len(got) :]), text


# --------------------------------------------------------------------------
# The reference parser: the recursive reader of tests/oracles.py
# --------------------------------------------------------------------------


def _outcome(parse, text):
    """The normal form of ``text``, or the class and message of its error."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - any error must match the reference's
        return type(exc), str(exc)


@pytest.mark.parametrize("text", ORACLE_EXPRESSIONS)
def test_normal_form_matches_the_reference_parser(text):
    assert parse_term_expr(text) == oracles.parse_term_expr(text)


# each list is one string, so that the scan of sources for summands in n
# does not take its forms for summands; a few forms are not linear
_LINEAR = "n 2*n+1 n+3 2*n 4 0 6*n+6 3*n-n 2*(n+1) n-2 n/2 n*n".split()
_BASES = "1/2 (-3) 2/3 (-1) 0 5".split()
_EXPONENTS = "0 1 2 3 (-1) (-2) n (2*n+1) (n-1) (-n) (1/2) (n*n)".split()
_NOISE = ("(", ")", "+", "-", "*", "/", ",", "n", " ", "\n", "&", "é", "x", "fact", "poch(", "binom(")


def _space(rng):
    return rng.choice(("", "", "", "", " ", "\n"))


def _atom(rng, depth):
    """An atom; at depth 0 one with no power and no nested expression."""
    kind = rng.randrange(8 if depth else 7)
    if kind <= 1:
        return str(rng.choice((0, 1, 1, 2, 2, 3, 5, 7, 12)))
    if kind == 2:
        return "n"
    if kind == 3:
        return f"fact{_space(rng)}({rng.choice(_LINEAR)})"
    if kind == 4:
        return f"binom{_space(rng)}({rng.choice(_LINEAR)},{_space(rng)}{rng.choice(_LINEAR)})"
    if kind == 5:
        return f"poch{_space(rng)}({rng.choice(_BASES)},{rng.choice(_LINEAR)})"
    if kind == 6:
        return f"({rng.choice(_LINEAR)})"
    return f"({_space(rng)}{_expr(rng, depth - 1)}{_space(rng)})"


def _unary(rng, depth):
    if rng.random() < 0.15:
        return "-" + _unary(rng, depth)
    if rng.random() < 0.3:
        # a power's base has no power inside, so every power folds small
        exponent = rng.choice(_EXPONENTS)
        base = rng.choice(_BASES) if "n" in exponent or rng.random() < 0.3 else _atom(rng, 0)
        return f"{base}{_space(rng)}^{_space(rng)}{exponent}"
    return _atom(rng, depth)


def _joined(rng, parts, ops):
    text = parts[0]
    for part in parts[1:]:
        text += _space(rng) + rng.choice(ops) + _space(rng) + part
    return text


def _expr(rng, depth):
    terms = [
        _joined(rng, [_unary(rng, depth) for _ in range(rng.randint(1, 3))], "**/")  # '*' twice as often
        for _ in range(rng.randint(1, 3))
    ]
    return _joined(rng, terms, "+-")


def random_summand(rng, depth=3):
    """A summand from the grammar, or one mutated by a deleted, inserted or
    replaced character, which neither adds a digit nor a '^'."""
    text = _expr(rng, depth)
    while rng.random() < 0.4:
        i = rng.randrange(len(text) + 1)
        noise = rng.choice(_NOISE)
        kind = rng.randrange(3)
        if kind == 0:
            mutated = text[:i] + text[i + 1 :]
        else:
            mutated = text[:i] + noise + text[i + (kind == 2) :]
        # a deletion may join an exponent's digits: keep every exponent small
        if not re.search(r"\^[\s(\-]*\d\d", mutated):
            text = mutated
    return text


def check_parser_agreement(seed, count):
    """``parse_term_expr`` against the reference parser on ``count`` seeded
    random summands: the same normal form, or the same error and message."""
    rng = random.Random(seed)
    kinds = collections.Counter()
    for _ in range(count):
        text = random_summand(rng)
        got = _outcome(parse_term_expr, text)
        assert got == _outcome(oracles.parse_term_expr, text), text
        kinds[got[0].__name__ if got and isinstance(got[0], type) else "parsed"] += 1
    return kinds


def test_parser_agrees_with_the_reference_on_random_summands():
    kinds = check_parser_agreement(seed=33, count=2000)
    # summands that parse and both kinds of error are well represented
    assert kinds["parsed"] >= 400 and kinds["ExprSyntaxError"] >= 200, kinds
    assert kinds["ExprSemanticError"] >= 200, kinds


def assert_refused(text, message):
    """``eval --expr text`` exits 2 at once with ``message``, and the parser
    raises it; in a child with 2 GB of address space, as folding such a
    summand runs out of time or memory where it is not refused."""
    proc = subprocess.run(
        [sys.executable, "-m", "betaseries", "eval", "--expr", text, "--digits", "5"],
        capture_output=True,
        text=True,
        timeout=10,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )
    message += f" {expressions.MAX_FOLD_SIZE}"
    assert proc.returncode == 2 and f"argument --expr: {message}" in proc.stderr, proc.stderr
    with pytest.raises(ExprSemanticError, match=re.escape(message)):
        parse_term_expr(text)


class TestLimits:
    """What the flat reader refuses, and the depth it takes without recursion."""

    def test_nesting_depth_costs_nothing(self):
        bare = parse_term_expr("(1/2)^n")
        assert parse_term_expr("(" * 5000 + "(1/2)^n" + ")" * 5000) == bare
        assert parse_term_expr("-" * 5000 + "(1/2)^n") == bare
        assert parse_term_expr("-" * 5001 + "(1/2)^n") == parse_term_expr("-(1/2)^n")
        # '^' chains, flat and with every exponent nested in the next
        assert parse_term_expr("(1/2)^n" + "*1" + "^2" * 5000) == bare
        nested = "(1/2)^n*2^(" + "1^(" * 5000 + "1" + ")" * 5001
        assert parse_term_expr(nested) == parse_term_expr("(1/2)^n" + "*2")
        deep_call = "fact(" + "(" * 5000 + "2*(n+1)+n" + ")" * 5000 + ")"
        assert parse_term_expr(deep_call) == parse_term_expr("fact(2*(n+1)+n)")

    @pytest.mark.parametrize(
        "text, column",
        [
            # split, so that the scan of sources for summands does not fold them
            ("(1/2)^n" + "*3^100000000", 10),
            ("(1/2)^n" + "*n^100000", 10),
            ("(1/2)^n*" + "2^" * 300 + "1", 30),
        ],
        ids=["constant", "polynomial", "tower"],
    )
    def test_runaway_constant_powers_are_refused(self, text, column):
        assert_refused(text, f"semantic error at 1:{column}: power folds past size")

    @pytest.mark.parametrize(
        "text, column",
        [
            ("(1/2)^n" + "*poch(1/3,300000)", 9),
            ("(1/2)^n" + "*poch(1/3,n+100000)", 9),
            ("(1/2)^n" + "*fact(200000)", 9),
            ("fact(2000000)", 1),
            ("(1/2)^n" + "*binom(1000000,500000)", 9),
        ],
        ids=["poch-constant", "poch-offset", "fact-in-summand", "fact-alone", "binom-constant"],
    )
    def test_runaway_constant_arguments_are_refused(self, text, column):
        assert_refused(text, f"semantic error at 1:{column}: constant folds past size")

    def test_constant_arguments_fold_up_to_the_size_limit(self):
        # 300! has 2 042 bits, 301! 2 050
        assert parse_term_expr("(1/2)^n" + "*fact(300)")
        # and the denominator 2^3000 of the last, whose numerator has 2 001 bits
        for text in ("fact(301)", "poch(1/3,300)", "poch((1-2^1000)/2^1000,3)"):
            with pytest.raises(ExprSemanticError, match="1:1: constant folds past"):
                parse_term_expr(text)
        # a constant binomial folds by math.comb, at most min(c, a - c) times a's bits
        assert parse_term_expr("binom(301,2)") == parse_term_expr("45150")
        assert parse_term_expr("(1/2)^n" + "*binom(1000,2)") == parse_term_expr("(1/2)^n*499500")
        assert parse_term_expr("binom(3,5)") == ()
        # 2048 has 12 bits: 170 * 12 = 2040 folds, 171 * 12 = 2052 does not
        assert parse_term_expr("binom(2048,1878)") == parse_term_expr(str(math.comb(2048, 170)))
        with pytest.raises(ExprSemanticError, match="1:1: constant folds past"):
            parse_term_expr("binom(2048,171)")
        # 1 / (999 n - 250)! holds (999 n - 249) ... (999 n), leading coefficient 999^250 of 2 491 bits
        with pytest.raises(ExprSemanticError, match="1:9: constant folds past"):
            parse_term_expr("(1/2)^n" + "*binom(1000*n,n+250)")
        # a factor 0 makes a poch of any length 0
        assert parse_term_expr("(1/2)^n" + "*poch(-5,300000)") == ()

    def test_size_limit_admits_every_source_summand(self, monkeypatch):
        # every summand in the sources that the reference reads is read; the
        # largest constant power among them is (1/10)^400
        monkeypatch.setattr(sys.modules[__name__], "parse_term_expr", oracles.parse_term_expr)
        read_by_the_reference = set(source_expressions())
        monkeypatch.undo()
        assert read_by_the_reference <= set(ORACLE_EXPRESSIONS)
        assert "(1/10)^400*(-1/3)^n" in ORACLE_EXPRESSIONS
        assert parse_term_expr("(1/10)^512" + "*(1/2)^n")
        with pytest.raises(ExprSemanticError, match="power folds past"):
            parse_term_expr("(1/10)^513" + "*(1/2)^n")

    def test_long_integer_literal_is_a_syntax_error(self, tmp_path, capsys):
        text = "(1/1" + "0" * 5000 + ")^n"
        message = "syntax error at 1:4: integer literal too long: 5001 digits"
        with pytest.raises(ExprSyntaxError, match=message):
            parse_term_expr(text)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"expr": text}))
        assert cli.main(["eval", "--spec", str(spec), "--digits", "5"]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
