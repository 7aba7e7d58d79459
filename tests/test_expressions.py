"""Term-expression grammar: parsing, evaluation, serialization, errors."""

from fractions import Fraction as F

import pytest

from betaseries.expressions import (
    Binom,
    ExprSemanticError,
    ExprSyntaxError,
    Fact,
    Lit,
    Mul,
    Poch,
    PowN,
    Var,
    evaluate,
    linear_form,
    parse_term_expr,
    to_text,
)

EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"

CATALOG_EXPRESSIONS = [
    EQ_1_1,
    "poch(2/3,n)*poch(1/2,n)*(102*n+59)/(poch(13/12,n)*poch(19/12,n)*(-288)^n)",
    "poch(1,n)*poch(1/2,n)*(-65/4*n-109/8)/(poch(11/6,n)*poch(7/6,n))*(-1/324)^n",
    "fact(4*n)^2*fact(6*n)*(127169/(12*n+1)-1070/(12*n+5)-131/(12*n+7)+2/(12*n+11))/(fact(2*n)*fact(12*n)*9^(n+1))",
    "(5717/(8*n+1)-413/(8*n+3)-45/(8*n+5)+5/(8*n+7))/(9^n*binom(8*n,4*n))",
    "1/((13/4)^(n+1)*binom(2*n,n)*(2*n+1))",
    "(63*(n+1)^2-27*(n+1)+4)/binom(6*n+6,3*n+3)",
    "(213125*n^4-278000*n^3+139975*n^2-26800*n+1596)/binom(10*n,5*n)",
    "poch(3/4,n)*poch(1/2,n)*(3*n+7/4)/((-8)^n*poch(9/8,n)*poch(13/8,n))",
    "1/((2*n+1)^2*binom(2*n,n))",
    "(40*n^2+54*n+19)/(2*((4*n+1)*(4*n+3))^2*binom(4*n,2*n))",
    "(640*n^2+608*n+147)*fact(8*n)/(fact(2*n+1)^2*fact(4*n)*24^(4*n))",
    "(448*n^2+496*n+127)*(poch(1/8,n)*poch(5/8,n)/(2^n*fact(2*n+1)))^2",
]


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
        assert ast == Lit(F(1))
        assert evaluate(ast, 17) == 1

    def test_binomial_power(self):
        ast = parse_term_expr("binom(8*n,4*n)/9^n")
        assert evaluate(ast, 1) == F(70, 9)

    def test_rational_literals_fold(self):
        assert parse_term_expr("7/6") == Lit(F(7, 6))
        assert parse_term_expr("-(3/4)") == Lit(F(-3, 4))
        assert parse_term_expr("2^3^2") == Lit(F(64))  # left-associative

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


class TestLinearForm:
    def test_basic(self):
        assert linear_form(parse_term_expr("6*n+6")) == (F(6), F(6))
        assert linear_form(parse_term_expr("(12*n+2)/2")) == (F(6), F(1))
        assert linear_form(parse_term_expr("n^2")) is None

    def test_nested(self):
        assert linear_form(parse_term_expr("2*(n+1)+n")) == (F(3), F(2))


class TestSerialization:
    @pytest.mark.parametrize("text", CATALOG_EXPRESSIONS)
    def test_roundtrip_catalog(self, text):
        ast = parse_term_expr(text)
        rendered = to_text(ast)
        assert parse_term_expr(rendered) == ast

    @pytest.mark.parametrize("text", CATALOG_EXPRESSIONS)
    def test_roundtrip_preserves_values(self, text):
        ast = parse_term_expr(text)
        again = parse_term_expr(to_text(ast))
        for n in range(6):
            assert evaluate(ast, n) == evaluate(again, n)

    def test_negative_literal_in_product(self):
        ast = parse_term_expr("-5*n - -3")
        assert parse_term_expr(to_text(ast)) == ast

    def test_structure_examples(self):
        assert to_text(Mul(Lit(F(1, 2)), Var())) == "1/2*n"
        assert to_text(Fact(parse_term_expr("2*n"))) == "fact(2*n)"
        assert to_text(Binom(Var(), Var())) == "binom(n,n)"
