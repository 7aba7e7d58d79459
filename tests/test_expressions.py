"""Term-expression grammar: parsing into the normal form, evaluation, errors."""

import ast
import itertools
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import betaseries
from betaseries.catalog import load_catalog
from betaseries.engine import HypTerms, product_core
from betaseries.expressions import (
    ExprError,
    ExprSemanticError,
    ExprSyntaxError,
    Product,
    evaluate,
    parse_term_expr,
)
from betaseries.polynomials import Polynomial

EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"
ROOT = Path(__file__).resolve().parent.parent


def product(c=1, num=(), den=(), a=(1,), b=(1,)):
    """One ``Product``, symbols given as ``(p, q)`` pairs in any order."""
    return Product(
        F(c),
        tuple(sorted((p, F(q)) for p, q in num)),
        tuple(sorted((p, F(q)) for p, q in den)),
        Polynomial(a),
        Polynomial(b),
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
    streams = [product_core(p).terms() for p in expr]
    terms = map(sum, itertools.zip_longest(*streams, fillvalue=F(0)))
    got = list(itertools.islice(terms, len(expected)))
    assert got == expected[: len(got)], text
    assert all(value == 0 for value in expected[len(got) :]), text
