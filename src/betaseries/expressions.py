"""Term expressions: the little language for printed series summands.

A summand is text over one integer index ``n`` with exact rational
literals and the building blocks of printed binomial-sum formulas:
factorials, binomial coefficients, rising factorials (``poch``), and
powers with an index-linear exponent.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*            # binds tighter than unary '-'
    atom   := INTEGER | 'n' | '(' expr ')'
            | 'fact' '(' expr ')'
            | 'binom' '(' expr ',' expr ')'
            | 'poch' '(' expr ',' expr ')'

Operators associate left within a precedence level.  The parser folds the
whole summand, as it reads it, into its normal form ``TermExpr``: a tuple of
hypergeometric ``Product``s

    c^n prod (q)_{pn} / prod (q')_{p'n} * a(n) / b(n),

with Pochhammer symbols ``(p, q)`` as in ``engine.HypTerms`` and polynomials
``a``, ``b``.  While folding, each product carries ``a / b`` as integer
coefficients ``(A, B)`` without common content, multiplied and added by the
integer kernel of ``polynomials``; the normal form, ``a = A / lead(B)`` and
``b`` monic, is made once, when the whole summand is read.  Products that
share ``(c, num, den)`` are merged, so every catalog summand is one product.
``fact(pn+q)`` is ``q! (q+1)_{pn}``, ``poch(x, pn+q)`` is ``(x)_q
(x+q)_{pn}``, ``c^(pn+q)`` is ``c^q (c^p)^n``,
and ``binom`` is a quotient of factorials whose last factorial is rewritten
so that the product is 0 exactly where the binomial is.  Each product is
one term core to the engine; ``evaluate`` is its closed form, kept as an
independent check.

Arguments of ``fact`` and ``binom``, and the length of ``poch``, must be
``c1*n + c0`` with nonnegative integers ``c1, c0``; a ``poch`` base and the
base of a variable power must be constant rationals.  The parser checks
each node as it folds it.  A violation is a semantic error at the position
of the offending function name or operator: ``fact(n/2)`` fails at ``1:1``,
``0^(n-1)`` at the ``^``, and ``n/0`` at the ``/``.  So does a divisor, or a
base with a negative exponent, that is a sum of unlike products, such as
``1/(2^n+1)``: it is not hypergeometric.  Only a zero that appears at some
index ``n`` (``1/(n-1)``) is left to evaluation, which raises
``ZeroDivisionError`` naming that ``n``.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Tuple, Union

from .polynomials import IntPoly, Polynomial, coeff_product, coeff_sum


class ExprError(ValueError):
    """Base class for term-expression failures: ``"<kind> error at L:C:
    <message>"``, with the position kept as ``line`` and ``column``."""

    kind = "expression"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{self.kind} error at {line}:{column}: {message}")
        self.line = line
        self.column = column


class ExprSyntaxError(ExprError):
    kind = "syntax"


class ExprSemanticError(ExprError):
    kind = "semantic"


# --------------------------------------------------------------------------
# The normal form and its closed form
# --------------------------------------------------------------------------

Symbol = Tuple[int, Fraction]


class Product(NamedTuple):
    """``c^n prod (q)_{pn} / prod (q')_{p'n} * a(n) / b(n)``.

    ``num`` and ``den`` are sorted tuples of symbols ``(p, q)`` with
    ``p >= 1``, and no symbol is in both.  ``a`` is nonzero and ``b`` is
    monic: the constant 1 unless ``a / b`` has a nonconstant denominator.
    """

    c: Fraction
    num: Tuple[Symbol, ...]
    den: Tuple[Symbol, ...]
    a: Polynomial
    b: Polynomial


#: a parsed summand: the sum of its products (the empty sum is 0)
TermExpr = Tuple[Product, ...]


def evaluate(expr: TermExpr, n: int) -> Fraction:
    """Exact value at index ``n``, each product from its closed form."""
    total = Fraction(0)
    for p in expr:
        top = p.c**n * p.a(n) * math.prod(pochhammer(q, k * n) for k, q in p.num)
        bottom = p.b(n) * math.prod(pochhammer(q, k * n) for k, q in p.den)
        if bottom == 0:
            raise ZeroDivisionError(f"division by zero at n={n}")
        total += top / bottom
    return total


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
# Folding: sums and products of products
# --------------------------------------------------------------------------

def _semantic(message: str, tok: _Token) -> ExprSemanticError:
    return ExprSemanticError(message, tok.line, tok.column)


def _single(c=Fraction(1), num=(), den=(), k: Union[Fraction, int] = 1, a=(1,)) -> TermExpr:
    """The one product ``c^n num/den k a`` for a rational ``k`` and integer
    coefficients ``a``, or the empty sum when it is 0."""
    a = tuple(k.numerator * v for v in a) if k else ()
    return (Product(c, num, den, a, (k.denominator,)),) if a else ()


def _pair(c, num, den, a: IntPoly, b: IntPoly) -> Product:
    """A folded product: ``a / b`` without common content."""
    g = math.gcd(*a, *b)
    if g > 1:
        a, b = tuple(x // g for x in a), tuple(x // g for x in b)
    return Product(c, num, den, a, b)


def _add(products: Iterable[Product]) -> TermExpr:
    """The sum, with the products that share ``(c, num, den)`` merged."""
    merged = {}
    for p in products:
        key = p[:3]
        if key in merged:
            # over b p.b, or over b lead(p.b) where b and p.b are one monic b
            a, b = merged[key]
            u, v = (b[-1],), (p.b[-1],)
            if coeff_product(b, v) != coeff_product(p.b, u):
                u, v = b, p.b
            a = coeff_sum(coeff_product(a, v), coeff_product(p.a, u))
            merged[key] = a, coeff_product(b, v)
        else:
            merged[key] = p.a, p.b
    return tuple(_pair(*key, a, b) for key, (a, b) in merged.items() if a)


def _mul(left: TermExpr, right: TermExpr) -> TermExpr:
    products = []
    for x in left:
        for y in right:
            den = sorted(x.den + y.den)
            num = []
            for s in sorted(x.num + y.num):
                if s in den:
                    den.remove(s)
                else:
                    num.append(s)
            a, b = coeff_product(x.a, y.a), coeff_product(x.b, y.b)
            products.append(_pair(x.c * y.c, tuple(num), tuple(den), a, b))
    return _add(products) if len(products) > 1 else tuple(products)


def _inverse(x: TermExpr, zero: str, tok: _Token) -> TermExpr:
    """``1 / x`` for one product ``x``; ``zero`` names the error of ``x = 0``."""
    if not x or x[0].c == 0:
        raise _semantic(zero, tok)
    if len(x) > 1:
        raise _semantic("not hypergeometric: 1 / a sum of unlike products", tok)
    (p,) = x
    return (Product(1 / p.c, p.den, p.num, p.b, p.a),)


def _power(x: TermExpr, k: int, tok: _Token) -> TermExpr:
    if k < 0:
        x, k = _inverse(x, "zero base with negative exponent", tok), -k
    result = _single()
    while k:
        if k & 1:
            result = _mul(result, x)
        k >>= 1
        if k:
            x = _mul(x, x)
    return result


def _polynomial(x: TermExpr) -> Optional[Polynomial]:
    """The value of ``x`` if it is a polynomial in n."""
    if not x:
        return Polynomial.zero()
    if len(x) == 1:
        c, num, den, a, b = x[0]
        if c == 1 and not num and not den and len(b) == 1:
            return Polynomial(Fraction(v, b[0]) for v in a)
    return None


def _const_value(x: TermExpr) -> Optional[Fraction]:
    p = _polynomial(x)
    return p.coefficient(0) if p is not None and p.degree <= 0 else None


def _linear(x: TermExpr, what: str, tok: _Token) -> Tuple[int, int]:
    """``(c1, c0)`` of ``x = c1*n + c0`` for integers ``c1, c0 >= 0``, else
    an error at ``tok``."""
    p = _polynomial(x)
    if p is None or p.degree > 1:
        message = f"{what} must be linear in n"
    elif any(c.denominator != 1 for c in p.coeffs):
        message = f"{what} must have integer coefficients"
    elif any(c < 0 for c in p.coeffs):
        message = f"{what} must be a nonnegative integer for all n >= 0"
    else:
        return int(p.coefficient(1)), int(p.coefficient(0))
    raise _semantic(message, tok)


def _factorial(p: int, q: int) -> TermExpr:
    """``(pn + q)! = q! (q + 1)_{pn}``."""
    num = ((p, Fraction(q + 1)),) if p else ()
    return _single(num=num, k=math.factorial(q))


def _reciprocal_factorial(e: int, f: int) -> TermExpr:
    """``1 / (en + f)!``, taken as 0 wherever ``en + f < 0``."""
    if f >= 0:
        inverse = Fraction(1, math.factorial(f))
        if e >= 0:
            return _single(den=((e, Fraction(f + 1)),) if e else (), k=inverse)
        # 1/(f - kn)! = (f - kn + 1) ... (f) / f! = (-1)^{kn} (-f)_{kn} / f!
        return _single(Fraction((-1) ** -e), num=((-e, Fraction(-f)),), k=inverse)
    if e > 0:
        # 1/(en + f)! = (en + f + 1) ... (en) / (en)!, where one factor is 0
        # wherever 0 <= en < -f
        a = functools.reduce(coeff_product, ((j, e) for j in range(f + 1, 1)), (1,))
        return _single(den=((e, Fraction(1)),), a=a)
    return ()  # en + f < 0 for every n >= 0


def _negate(x: TermExpr) -> TermExpr:
    return tuple(p._replace(a=tuple(-v for v in p.a)) for p in x)


def _sum_node(x: TermExpr, y: TermExpr, tok: _Token) -> TermExpr:
    """``x + y`` or ``x - y``, as ``tok`` says."""
    return _add(x + (y if tok.text == "+" else _negate(y)))


def _product_node(x: TermExpr, y: TermExpr, tok: _Token) -> TermExpr:
    """``x * y`` or ``x / y``, as ``tok`` says."""
    return _mul(x, y if tok.text == "*" else _inverse(y, "division by zero constant", tok))


def _power_node(base: TermExpr, exponent: TermExpr, tok: _Token) -> TermExpr:
    """``base ^ exponent``: an integer constant exponent, or an integer linear
    form in ``n`` over a constant rational base."""
    k = _const_value(exponent)
    if k is not None:
        if k.denominator != 1:
            raise _semantic("constant exponent must be an integer", tok)
        return _power(base, int(k), tok)
    c = _const_value(base)
    if c is None:
        raise _semantic("variable exponent requires a constant rational base", tok)
    f = _polynomial(exponent)
    if f is None or f.degree > 1 or any(e.denominator != 1 for e in f.coeffs):
        raise _semantic("exponent must be an integer-valued linear form in n", tok)
    p, q = int(f.coefficient(1)), int(f.coefficient(0))
    if c == 0 and (p < 0 or q < 0):
        raise _semantic("zero base with possibly negative exponent", tok)
    return _single(c**p, k=c**q)


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_FUNRS = ("fact", "binom", "poch")


class _Token(NamedTuple):
    kind: str  # 'int', 'name', 'op', 'end'
    text: str
    line: int
    column: int


_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^(),])|(?P<space>\s)|(?P<bad>.)",
    re.S,
)


def _tokenize(text: str):
    tokens, line, start = [], 1, 0  # start: the offset of the current line
    for m in _TOKEN.finditer(text):
        kind, column = m.lastgroup, m.start() - start + 1
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", line, column)
        if kind != "space":
            tokens.append(_Token(kind, m.group(), line, column))
        elif m.group() == "\n":
            line, start = line + 1, m.end()
    tokens.append(_Token("end", "", line, len(text) - start + 1))
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

    def fold(self, operand, ops: str, combine) -> TermExpr:
        """``operand (op operand)*`` for the operators in ``ops``, folded from
        the left by ``combine(node, rhs, tok)``."""
        node = operand()
        while (tok := self.peek()).kind == "op" and tok.text in ops:
            self.advance()
            node = combine(node, operand(), tok)
        return node

    def expr(self) -> TermExpr:
        return self.fold(self.term, "+-", _sum_node)

    def term(self) -> TermExpr:
        return self.fold(self.unary, "*/", _product_node)

    def unary(self) -> TermExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _negate(self.unary())
        return self.power()

    def power(self) -> TermExpr:
        return self.fold(self.atom, "^", _power_node)

    def atom(self) -> TermExpr:
        tok = self.advance()
        if tok.kind == "int":
            return _single(k=int(tok.text))
        if tok.kind == "name":
            if tok.text == "n":
                return _single(a=(0, 1))
            if tok.text in _FUNRS:
                self.expect("(")
                first = self.expr()
                if tok.text == "fact":
                    self.expect(")")
                    return _factorial(*_linear(first, "factorial argument", tok))
                self.expect(",")
                second = self.expr()
                self.expect(")")
                if tok.text == "binom":
                    a, b = _linear(first, "binomial argument", tok)
                    c, d = _linear(second, "binomial argument", tok)
                    top = _mul(_factorial(a, b), _reciprocal_factorial(c, d))
                    return _mul(top, _reciprocal_factorial(a - c, b - d))
                x = _const_value(first)
                if x is None:
                    raise _semantic("poch base must be a constant rational", tok)
                p, q = _linear(second, "pochhammer length", tok)
                num = ((p, x + q),) if p else ()
                return _single(num=num, k=pochhammer(x, q))
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
    """Parse a summand in the grammar into its normal form, checking it on the way."""
    normal = []
    for p in _Parser(text).parse():
        a, b = (Polynomial(Fraction(v, p.b[-1]) for v in x) for x in (p.a, p.b))
        normal.append(p._replace(a=a, b=b))
    return tuple(normal)
