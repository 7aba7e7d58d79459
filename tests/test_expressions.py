"""Term-expression grammar: parsing, polynomial folding, evaluation, errors."""

from fractions import Fraction as F

import pytest

import betaseries
from betaseries.expressions import (
    Div,
    ExprSemanticError,
    ExprSyntaxError,
    Poch,
    Poly,
    PowInt,
    PowN,
    evaluate,
    linear_form,
    parse_term_expr,
)
from betaseries.polynomials import Polynomial

EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"


class TestParsing:
    def test_eq_1_1_value_at_zero(self):
        ast = parse_term_expr(EQ_1_1)
        assert evaluate(ast, 0) == F(109)

    def test_eq_1_1_value_at_two(self):
        # (4)! * 369 / ((7/6)(13/6) * (11/6)(17/6) * 1296^2)
        ast = parse_term_expr(EQ_1_1)
        expected = F(24 * 369) / (F(7, 6) * F(13, 6) * F(11, 6) * F(17, 6) * 1296**2)
        assert evaluate(ast, 2) == expected

    def test_constant(self):
        ast = parse_term_expr("1")
        assert ast == Poly(Polynomial.constant(F(1)))
        assert evaluate(ast, 17) == 1

    def test_binomial_power(self):
        ast = parse_term_expr("binom(8*n,4*n)/9^n")
        assert evaluate(ast, 1) == F(70, 9)

    def test_rational_literals_fold(self):
        assert parse_term_expr("7/6") == Poly(Polynomial.constant(F(7, 6)))
        assert parse_term_expr("-(3/4)") == Poly(Polynomial.constant(F(-3, 4)))
        assert parse_term_expr("2^3^2") == Poly(Polynomial.constant(F(64)))  # left-associative
        assert parse_term_expr("n") == Poly(Polynomial.x())

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
        ast = parse_term_expr("poch(7/6,2*n+1)")
        assert isinstance(ast, Poch)
        assert ast.base == F(7, 6)
        assert evaluate(ast, 1) == F(7, 6) * F(13, 6) * F(19, 6)

    def test_power_with_index_exponent(self):
        ast = parse_term_expr("(-1296)^n")
        assert isinstance(ast, PowN)
        assert ast.base == F(-1296)
        assert evaluate(ast, 2) == F(1296**2)
        zero = parse_term_expr("0^n")
        assert [evaluate(zero, n) for n in range(3)] == [1, 0, 0]

    def test_variable_power_constant_exponent(self):
        ast = parse_term_expr("(2*n+1)^2")
        assert evaluate(ast, 3) == 49


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
        ):
            with pytest.raises(ExprSemanticError, match="zero") as err:
                parse_term_expr(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_zero_at_an_index_names_the_index(self):
        # only evaluation finds it, so it is not a semantic error with a position
        for text, n in (("1/(n-1)^2", 1), ("(n-3)^(-2)", 3)):
            ast = parse_term_expr(text)
            for i in range(n):
                evaluate(ast, i)
            with pytest.raises(ZeroDivisionError, match=f"at n={n}$"):
                evaluate(ast, n)


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
            assert parse_term_expr(text) == Poly(Polynomial(coeffs)), text

    def test_other_nodes_stay(self):
        assert isinstance(parse_term_expr("fact(n)^2"), PowInt)
        assert isinstance(parse_term_expr("1/(n+1)"), Div)
        assert isinstance(parse_term_expr("(n-3)^(-2)"), PowInt)


def test_every_public_name_resolves():
    for name in betaseries.__all__:
        assert getattr(betaseries, name) is not None, name


class TestLinearForm:
    def test_basic(self):
        assert linear_form(parse_term_expr("6*n+6")) == (F(6), F(6))
        assert linear_form(parse_term_expr("(12*n+2)/2")) == (F(6), F(1))
        assert linear_form(parse_term_expr("n^2")) is None

    def test_nested(self):
        assert linear_form(parse_term_expr("2*(n+1)+n")) == (F(3), F(2))
