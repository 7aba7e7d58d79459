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

Operators associate left within a precedence level.  Every polynomial
subexpression in ``n`` folds at parse time into one node, ``Poly``, that
holds an exact ``polynomials.Polynomial``: integer literals and ``n`` are
polynomials, and so are their sums, differences, products, negations,
quotients by a constant and powers with a constant exponent ``k >= 0``.
So ``7/6`` is one constant, ``(-1296)^n`` has a plain rational base, and
``(2*n+1)^2`` is the single polynomial ``4n^2 + 4n + 1``.  A constant
raised to a negative integer power folds too.  Expressions are parsed and
evaluated only; there is no serializer.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .polynomials import Polynomial


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
class Poly:
    """A polynomial in the index n with rational coefficients."""

    p: Polynomial


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


TermExpr = Union[Poly, Add, Sub, Mul, Div, Neg, PowInt, PowN, Fact, Binom, Poch]


# --------------------------------------------------------------------------
# Linear-form extraction and evaluation
# --------------------------------------------------------------------------


def linear_form(node: TermExpr) -> Optional[Tuple[Fraction, Fraction]]:
    """Return (slope, intercept) if ``node`` is linear in n, else None."""
    if isinstance(node, Poly) and node.p.degree <= 1:
        return node.p.coefficient(1), node.p.coefficient(0)
    return None


def _const_value(node: TermExpr) -> Optional[Fraction]:
    if isinstance(node, Poly) and node.p.degree <= 0:
        return node.p.coefficient(0)
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


def _index(node: Poly, n: int) -> int:
    """Value at ``n`` of a polynomial the parser proved integer-coefficient."""
    acc = 0
    for c in reversed(node.p.coeffs):
        acc = acc * n + c.numerator
    return acc


def evaluate(node: TermExpr, n: int) -> Fraction:
    """Exact value of the expression at index ``n``."""
    if isinstance(node, Poly):
        # Horner in integers over the running common denominator: one
        # reduction per polynomial instead of one per Fraction operation
        num, den = 0, 1
        for c in reversed(node.p.coeffs):
            num = num * n * c.denominator + c.numerator * den
            den *= c.denominator
        return Fraction(num, den)
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
        return node.base ** _index(node.exponent, n)
    if isinstance(node, Fact):
        return Fraction(math.factorial(_index(node.arg, n)))
    if isinstance(node, Binom):
        return Fraction(math.comb(_index(node.top, n), _index(node.bottom, n)))
    if isinstance(node, Poch):
        return pochhammer(node.base, _index(node.length, n))
    raise TypeError(f"not a TermExpr node: {node!r}")


def pochhammer_pair(x: Union[Fraction, int], m: int) -> Tuple[int, int]:
    """``(x)_m = prod_{j<m} (u + j v) / v^m`` for ``x = u/v``, as an unreduced pair.

    The package's one rising-factorial product of a number: ``pochhammer``
    reduces it once.  A term core's rising factorials in ``n`` are integer
    polynomials instead (``polynomials.integer_forms``)."""
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
_NODES = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_FOLDS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _binary(op: str, left: TermExpr, right: TermExpr) -> TermExpr:
    """``left op right``, folded into one ``Poly`` when both sides are
    polynomials (for ``/``, when the divisor is a constant)."""
    if isinstance(left, Poly) and isinstance(right, Poly):
        if op in _FOLDS:
            return Poly(_FOLDS[op](left.p, right.p))
        divisor = _const_value(right)
        if divisor is not None:
            return Poly(left.p * (1 / divisor))
    return _NODES[op](left, right)


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
                node = _binary(tok.text, node, self.term())
            else:
                return node

    def term(self) -> TermExpr:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.unary()
                if tok.text == "/" and _const_value(rhs) == 0:
                    raise ExprSemanticError(
                        "division by zero constant", tok.line, tok.column
                    )
                node = _binary(tok.text, node, rhs)
            else:
                return node

    def unary(self) -> TermExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.unary()
            return Poly(-operand.p) if isinstance(operand, Poly) else Neg(operand)
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
        c, k = _const_value(base), _const_value(exponent)
        if k is not None:
            if k.denominator != 1:
                raise ExprSemanticError(
                    "constant exponent must be an integer", tok.line, tok.column
                )
            if k < 0 and c == 0:
                raise ExprSemanticError(
                    "zero base with negative exponent", tok.line, tok.column
                )
            if c is not None:
                return Poly(Polynomial.constant(c ** int(k)))
            if isinstance(base, Poly) and k >= 0:
                return Poly(base.p ** int(k))
            return PowInt(base, int(k))
        if c is None:
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
        if c == 0 and (f[0] < 0 or f[1] < 0):
            raise ExprSemanticError(
                "zero base with possibly negative exponent", tok.line, tok.column
            )
        return PowN(c, exponent)

    def atom(self) -> TermExpr:
        tok = self.advance()
        if tok.kind == "int":
            return Poly(Polynomial.constant(int(tok.text)))
        if tok.kind == "name":
            if tok.text == "n":
                return Poly(Polynomial.x())
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


def parse_term_expr(text: str) -> TermExpr:
    """Parse a term expression in the summand grammar, checking it on the way."""
    return _Parser(text).parse()
