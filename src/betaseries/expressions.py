"""Term expressions: the little language for printed series summands.

A ``TermExpr`` is a small AST over a single integer index ``n`` with exact
rational literals and the combinatorial building blocks that printed
binomial-sum formulas use: factorials, binomial coefficients, rising
factorials (``poch``), and powers with an index-linear exponent.  Every
expression evaluates to an exact ``Fraction`` at each ``n >= 0``.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*            # binds tighter than unary '-'
    atom   := INTEGER | 'n' | '(' expr ')'
            | 'fact' '(' expr ')'
            | 'binom' '(' expr ',' expr ')'
            | 'poch' '(' expr ',' expr ')'

Rational literals like ``7/6`` arrive through the division operator and are
folded into a single literal at parse time, as is all other constant
arithmetic; ``(-1296)^n`` therefore has a plain rational base.  Operators
associate left within a precedence level.

Two kinds of power survive parsing: ``expr ^ INT`` (constant integer
exponent) and ``RATIONAL ^ linear-in-n``.  Arguments of ``fact``/``binom``
and the length argument of ``poch`` must be linear forms ``c1*n + c0``
with nonnegative integer ``c1, c0`` so they are nonnegative integers for
every ``n >= 0``.

The parser checks each node as it builds it, so a parsed expression needs
no second pass.  A violation is a semantic error at the position of the
offending function name or operator: ``fact(n/2)`` fails at ``1:1``,
``0^(n-1)`` at the ``^``, and ``n/0`` at the ``/``.  Only a zero that
appears at some index ``n`` (``1/(n-1)``) is left to evaluation, which
raises ``ZeroDivisionError`` naming that ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union


class ExprError(ValueError):
    """Base class for term-expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"syntax error at {line}:{column}: {message}")
        self.line = line
        self.column = column


class ExprSemanticError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"semantic error at {line}:{column}: {message}")
        self.line = line
        self.column = column


# --------------------------------------------------------------------------
# AST node types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    """The summation index n."""


@dataclass(frozen=True)
class Add:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True)
class Sub:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True)
class Mul:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True)
class Div:
    left: "TermExpr"
    right: "TermExpr"


@dataclass(frozen=True)
class Neg:
    operand: "TermExpr"


@dataclass(frozen=True)
class PowInt:
    """base ^ constant integer exponent."""

    base: "TermExpr"
    exponent: int


@dataclass(frozen=True)
class PowN:
    """rational base ^ (linear-in-n exponent)."""

    base: Fraction
    exponent: "TermExpr"


@dataclass(frozen=True)
class Fact:
    arg: "TermExpr"


@dataclass(frozen=True)
class Binom:
    top: "TermExpr"
    bottom: "TermExpr"


@dataclass(frozen=True)
class Poch:
    base: Fraction
    length: "TermExpr"


TermExpr = Union[Lit, Var, Add, Sub, Mul, Div, Neg, PowInt, PowN, Fact, Binom, Poch]


# --------------------------------------------------------------------------
# Linear-form extraction and evaluation
# --------------------------------------------------------------------------


def linear_form(node: TermExpr) -> Optional[Tuple[Fraction, Fraction]]:
    """Return (slope, intercept) if ``node`` is linear in n, else None."""
    if isinstance(node, Lit):
        return Fraction(0), node.value
    if isinstance(node, Var):
        return Fraction(1), Fraction(0)
    if isinstance(node, Neg):
        f = linear_form(node.operand)
        return None if f is None else (-f[0], -f[1])
    if isinstance(node, (Add, Sub)):
        lf, rf = linear_form(node.left), linear_form(node.right)
        if lf is None or rf is None:
            return None
        if isinstance(node, Add):
            return lf[0] + rf[0], lf[1] + rf[1]
        return lf[0] - rf[0], lf[1] - rf[1]
    if isinstance(node, Mul):
        lf, rf = linear_form(node.left), linear_form(node.right)
        if lf is None or rf is None:
            return None
        if lf[0] == 0:
            return lf[1] * rf[0], lf[1] * rf[1]
        if rf[0] == 0:
            return rf[1] * lf[0], rf[1] * lf[1]
        return None
    if isinstance(node, Div):
        lf, rf = linear_form(node.left), linear_form(node.right)
        if lf is None or rf is None or rf[0] != 0 or rf[1] == 0:
            return None
        return lf[0] / rf[1], lf[1] / rf[1]
    if isinstance(node, PowInt):
        f = linear_form(node.base)
        if f is None:
            return None
        if node.exponent == 0:
            return Fraction(0), Fraction(1)
        if node.exponent == 1:
            return f
        if f[0] == 0:
            return Fraction(0), f[1] ** node.exponent
        return None
    return None


def _nonneg_integer_linear(node: TermExpr, what: str, tok: _Token) -> None:
    """Reject ``node`` at ``tok`` unless it is ``c1*n + c0``, c1, c0 integers >= 0."""
    f = linear_form(node)
    if f is None:
        message = f"{what} must be linear in n"
    elif f[0].denominator != 1 or f[1].denominator != 1:
        message = f"{what} must have integer coefficients"
    elif f[0] < 0 or f[1] < 0:
        message = f"{what} must be a nonnegative integer for all n >= 0"
    else:
        return
    raise ExprSemanticError(message, tok.line, tok.column)


def evaluate(node: TermExpr, n: int) -> Fraction:
    """Exact value of the expression at index ``n``."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return Fraction(n)
    if isinstance(node, Add):
        return evaluate(node.left, n) + evaluate(node.right, n)
    if isinstance(node, Sub):
        return evaluate(node.left, n) - evaluate(node.right, n)
    if isinstance(node, Mul):
        return evaluate(node.left, n) * evaluate(node.right, n)
    if isinstance(node, Div):
        denom = evaluate(node.right, n)
        if denom == 0:
            raise ZeroDivisionError(f"division by zero at n={n}")
        return evaluate(node.left, n) / denom
    if isinstance(node, Neg):
        return -evaluate(node.operand, n)
    if isinstance(node, PowInt):
        base = evaluate(node.base, n)
        if node.exponent < 0 and base == 0:
            raise ZeroDivisionError(f"zero base with negative exponent at n={n}")
        return base ** node.exponent
    if isinstance(node, PowN):
        return node.base ** int(evaluate(node.exponent, n))
    if isinstance(node, Fact):
        return Fraction(math.factorial(int(evaluate(node.arg, n))))
    if isinstance(node, Binom):
        return Fraction(
            math.comb(int(evaluate(node.top, n)), int(evaluate(node.bottom, n)))
        )
    if isinstance(node, Poch):
        return pochhammer(node.base, int(evaluate(node.length, n)))
    raise TypeError(f"not a TermExpr node: {node!r}")


def pochhammer_pair(x: Union[Fraction, int], m: int) -> Tuple[int, int]:
    """``(x)_m = prod_{j<m} (u + j v) / v^m`` for ``x = u/v``, as an unreduced pair.

    The package's one rising-factorial product: ``pochhammer`` reduces it once,
    and an ``engine.HypTerms`` ratio folds all its symbols into one fraction."""
    if m < 0:
        raise ValueError("pochhammer length must be nonnegative")
    u, v = x.numerator, x.denominator
    return math.prod(range(u, u + m * v, v)), v**m


def pochhammer(x: Union[Fraction, int], m: int) -> Fraction:
    """Rising factorial ``(x)_m = x (x+1) ... (x+m-1)``; ``(x)_0 = 1``."""
    return Fraction(*pochhammer_pair(x, m))


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_FUNRS = ("fact", "binom", "poch")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'name', 'op', 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ExprSyntaxError(
            f"expected {text!r}, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def parse(self) -> TermExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column
            )
        return node

    def expr(self) -> TermExpr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = _fold(Add(node, rhs) if tok.text == "+" else Sub(node, rhs))
            else:
                return node

    def term(self) -> TermExpr:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                if tok.text == "/":
                    if rhs == Lit(Fraction(0)):
                        raise ExprSemanticError(
                            "division by zero constant", tok.line, tok.column
                        )
                    node = _fold(Div(node, rhs))
                else:
                    node = _fold(Mul(node, rhs))
            else:
                return node

    def unary(self) -> TermExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _fold(Neg(self.unary()))
        return self.power()

    def power(self) -> TermExpr:
        node = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                exponent = self.atom()
                node = self._make_pow(node, exponent, tok)
            else:
                return node

    def _make_pow(self, base: TermExpr, exponent: TermExpr, tok: _Token) -> TermExpr:
        if isinstance(exponent, Lit):
            if exponent.value.denominator != 1:
                raise ExprSemanticError(
                    "constant exponent must be an integer", tok.line, tok.column
                )
            if exponent.value < 0 and base == Lit(Fraction(0)):
                raise ExprSemanticError(
                    "zero base with negative exponent", tok.line, tok.column
                )
            return _fold(PowInt(base, int(exponent.value)))
        base_f = _const_value(base)
        if base_f is None:
            raise ExprSemanticError(
                "variable exponent requires a constant rational base",
                tok.line,
                tok.column,
            )
        f = linear_form(exponent)
        if f is None or f[0].denominator != 1 or f[1].denominator != 1:
            raise ExprSemanticError(
                "exponent must be an integer-valued linear form in n",
                tok.line,
                tok.column,
            )
        if base_f == 0 and (f[0] < 0 or f[1] < 0):
            raise ExprSemanticError(
                "zero base with possibly negative exponent", tok.line, tok.column
            )
        return PowN(base_f, exponent)

    def atom(self) -> TermExpr:
        tok = self.advance()
        if tok.kind == "int":
            return Lit(Fraction(int(tok.text)))
        if tok.kind == "name":
            if tok.text == "n":
                return Var()
            if tok.text in _FUNRS:
                self.expect("(")
                first = self.expr()
                if tok.text == "fact":
                    self.expect(")")
                    _nonneg_integer_linear(first, "factorial argument", tok)
                    return Fact(first)
                self.expect(",")
                second = self.expr()
                self.expect(")")
                if tok.text == "binom":
                    _nonneg_integer_linear(first, "binomial argument", tok)
                    _nonneg_integer_linear(second, "binomial argument", tok)
                    return Binom(first, second)
                base = _const_value(first)
                if base is None:
                    raise ExprSemanticError(
                        "poch base must be a constant rational",
                        tok.line,
                        tok.column,
                    )
                _nonneg_integer_linear(second, "pochhammer length", tok)
                return Poch(base, second)
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )


def _const_value(node: TermExpr) -> Optional[Fraction]:
    return node.value if isinstance(node, Lit) else None


def _fold(node: TermExpr) -> TermExpr:
    """Constant-fold literal arithmetic so e.g. ``7/6`` becomes one literal."""
    if isinstance(node, Neg) and isinstance(node.operand, Lit):
        return Lit(-node.operand.value)
    if isinstance(node, (Add, Sub, Mul, Div)):
        if isinstance(node.left, Lit) and isinstance(node.right, Lit):
            a, b = node.left.value, node.right.value
            if isinstance(node, Add):
                return Lit(a + b)
            if isinstance(node, Sub):
                return Lit(a - b)
            if isinstance(node, Mul):
                return Lit(a * b)
            return Lit(a / b)
    if isinstance(node, PowInt) and isinstance(node.base, Lit):
        return Lit(node.base.value ** node.exponent)
    return node


def parse_term_expr(text: str) -> TermExpr:
    """Parse a term expression in the summand grammar, checking it on the way."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Serialization (canonical text that reparses to an equal AST)
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: TermExpr) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, (PowInt, PowN)):
        return _PREC_POW
    if isinstance(node, Lit) and (node.value < 0 or node.value.denominator != 1):
        return _PREC_MUL  # prints with '/' or '-': parenthesize like a product
    return _PREC_ATOM


def _wrap(node: TermExpr, minimum: int) -> str:
    text = to_text(node)
    return f"({text})" if _prec(node) < minimum else text


def _rat_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def to_text(node: TermExpr) -> str:
    """Render an AST to grammar text; ``parse_term_expr`` inverts it."""
    if isinstance(node, Lit):
        return _rat_text(node.value)
    if isinstance(node, Var):
        return "n"
    if isinstance(node, Add):
        return f"{_wrap(node.left, _PREC_ADD)} + {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.left, _PREC_ADD)} - {_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _PREC_MUL)}*{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _PREC_MUL)}/{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _PREC_NEG)}"
    if isinstance(node, PowInt):
        return f"{_wrap(node.base, _PREC_ATOM)}^{node.exponent}" if node.exponent >= 0 else f"{_wrap(node.base, _PREC_ATOM)}^({node.exponent})"
    if isinstance(node, PowN):
        base = _rat_text(node.base)
        if node.base < 0 or node.base.denominator != 1:
            base = f"({base})"
        return f"{base}^{_wrap(node.exponent, _PREC_ATOM)}"
    if isinstance(node, Fact):
        return f"fact({to_text(node.arg)})"
    if isinstance(node, Binom):
        return f"binom({to_text(node.top)},{to_text(node.bottom)})"
    if isinstance(node, Poch):
        return f"poch({_rat_text(node.base)},{to_text(node.length)})"
    raise TypeError(f"not a TermExpr node: {node!r}")
