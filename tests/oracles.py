"""Oracles: the textbook forms of exact and float work the package does faster.

``polynomials`` does its exact work on tuples of ints: a primitive remainder
sequence for gcds and Sturm chains, and exact division by a primitive
divisor.  These functions do the same work the textbook way, on
``Polynomial``s over Q (``Fraction`` coefficients, monic gcds by Euclid's
algorithm, a Sturm chain of remainders over Q), and share no code with the
kernel beyond ``Polynomial`` and ``poly_divmod``.

A sum's float bookkeeping is kept here as it was before Newton steps and
columns replaced it: ``place`` finds the start of the stop search by
doubling and then bisection on the capped float bound ``over``, and
``measured_rate`` fits the back half's term sizes, summed leaf by leaf
(``term_logs``, ``rate_points``), with ``statistics.linear_regression`` (``fit_rate``).
``fit_rate_311`` is that function's formulas in CPython 3.11, which
``engine._fit_rate`` must match on every Python.

The tests require equal results, and CI steps run the agreement on many
more inputs.

The term-expression reader is kept here as it was before one flat loop
replaced it: ``parse_term_expr`` tokenizes into ``_Token``s with their
line and column, descends recursively through ``_Parser`` with one
``fold`` frame per precedence level, and folds every node on
``Product``s whose ``c`` and symbols are ``Fraction``s.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import statistics
from fractions import Fraction
from math import fsum, gcd, lcm
from typing import Iterable, NamedTuple, Optional, Tuple, Union

from betaseries.engine import EvaluationError
from betaseries.expressions import (
    ExprSemanticError,
    ExprSyntaxError,
    Product,
    TermExpr,
    pochhammer,
)
from betaseries.polynomials import (
    IntPoly,
    Polynomial,
    coeff_product,
    coeff_sum,
    horner,
    poly_divmod,
)


def integer_coefficients(*polys):
    """The coefficients, lowest first, times one rational scale: the least
    that makes them all integers with no common factor."""
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    forms = [[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in polys]
    content = gcd(*(c for form in forms for c in form)) or 1
    return tuple(tuple(c // content for c in form) for form in forms)


def integer_forms(*sums):
    """Sums of rising factorials in ``n`` as integer coefficients, lowest first
    (see ``polynomials.integer_forms``), built by ``Polynomial`` products."""
    polys = []
    for terms in sums:
        total = Polynomial.zero()
        for c, symbols in terms:
            piece = Polynomial.constant(c)
            for x, d, m in symbols:
                for j in range(m):
                    piece = piece * Polynomial((x + j, d))
            total = total + piece
        polys.append(total)
    return integer_coefficients(*polys)


def derivative(p):
    return Polynomial(i * c for i, c in enumerate(p.coeffs) if i > 0)


def monic(p):
    """``p`` divided by its leading coefficient."""
    return p * (Fraction(1) / p.leading)


def poly_gcd(a, b):
    """The monic gcd by Euclid's algorithm over Q; the zero polynomial when
    both are 0."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return monic(a)


def leaf_forms(ratio, weight):
    """``(N', D', V, U)`` of ``polynomials.leaf_forms``, over Q."""
    top, bottom, a, b = (Polynomial(c) for c in (*ratio, *weight))
    g = poly_gcd(top, bottom)
    g = poly_divmod(g, poly_gcd(g, b))[0]
    top, bottom = integer_coefficients(*(poly_divmod(x, g)[0] for x in (top, bottom)))
    d = Polynomial(bottom)
    g = poly_gcd(b, d)
    return top, bottom, *integer_coefficients(poly_divmod(b, g)[0], a * poly_divmod(d, g)[0])


def _sign_changes(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_distinct_roots_on_unit_interval(p):
    """Distinct real roots of ``p`` in [0, 1] by a Sturm chain over Q: the
    squarefree part ``p / gcd(p, p')``, endpoint roots deflated and counted
    apart."""
    if p.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    if p.degree == 0:
        return 0
    endpoint_roots = int(p(0) == 0) + int(p(1) == 0)
    g = poly_gcd(p, derivative(p))
    sf = poly_divmod(p, g)[0] if g.degree >= 1 else p
    if sf(0) == 0:
        sf = poly_divmod(sf, Polynomial((0, 1)))[0]
    if sf(1) == 0:
        sf = poly_divmod(sf, Polynomial((-1, 1)))[0]
    if sf.degree < 1:
        return endpoint_roots
    chain = [sf, derivative(sf)]
    while chain[-1].degree >= 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    interior = _sign_changes([q(0) for q in chain]) - _sign_changes(
        [q(1) for q in chain]
    )
    return max(interior, 0) + endpoint_roots


def integer_ratio(core):
    """``HypTerms.integer_ratio`` from ``Polynomial`` products."""
    return integer_forms(
        [(core.c, [(q, p, p) for p, q in core.num])],
        [(1, [(q, p, p) for p, q in core.den])],
    )


def tail_forms(core):
    """``HypTerms.tail_forms``, its polynomials built over Q."""
    above, below = (
        sorted((q + j) / p for p, q in side for j in range(p))
        for side in (core.num, core.den)
    )
    above = sorted(a if a.denominator == 1 else max(a, -2 - a) for a in above)
    if len(above) > len(below):
        return None
    n0 = max([1] + [math.floor(-x) + 1 for x in above + below])
    top, bottom = core.weight
    d = max(len(top) - len(bottom), 0)
    p = Polynomial.constant(core.limit()) * Polynomial((1, 1)) ** d
    q = Polynomial((0, 1)) ** d
    for a, b in itertools.zip_longest(above, below):
        if a is None or a > b:
            q = q * Polynomial((b, 1))
            if a is not None:
                p = p * Polynomial((a, 1))
    sign = 1 if bottom[-1] > 0 else -1
    floor = tuple(min(sign * c, 0) for c in bottom[:-1]) + (abs(bottom[-1]),)
    return (n0, *integer_coefficients(p, q), tuple(map(abs, top)), floor)


def grouped_weight(core, m):
    """The weight ``(U, V)`` of ``core.grouped(m)``, composed over Q."""
    top, bottom = integer_ratio(core)
    a, b = core.weight

    def at(coeffs, j):
        return horner(coeffs, Polynomial((j, m)), Polynomial.zero())

    u, v = at(a, m - 1), at(b, m - 1)
    for j in range(m - 2, -1, -1):
        d, bj = at(bottom, j), at(b, j)
        u, v = at(a, j) * d * v + bj * at(top, j) * u, bj * d * v
    return integer_coefficients(u, v)


def over(walks, n, room):
    """The float tail bound from term ``n`` over the budget ``2^room``, each core's
    capped at ``2^9``; ``inf`` where a core has none."""
    forms = [walk.bound(n) for walk in walks]
    terms = zip(walks, forms)
    logs = (w.size(n) + math.log2(a) - math.log2(b) - room for w, (a, b) in terms if a)
    return math.inf if None in forms else sum(2.0 ** min(x, 9) for x in logs)


def place(walks, room, max_terms):
    """The start of the stop search: doubling until the floats put the tail in
    budget, then bisecting; a bound ``2^8`` past the budget at ``max_terms``
    raises."""
    start = n = 0
    while (excess := over(walks, n, room)) >= 1 and n < max_terms:
        start, n = n + 1, min(max(2 * n, 4), max_terms)
    if 2**8 < excess < math.inf:  # 2^8 past the budget at max_terms: no leaf can help
        raise EvaluationError(f"tail target not reached within {max_terms} terms")
    while start < n:  # the first where it holds, if it holds from there on
        mid = (start + n) // 2
        start, n = (start, mid) if over(walks, mid, room) < 1 else (mid + 1, n)
    return n


def term_logs(walk, start, stop):
    """``log2 |t(n) w(n)|`` for the leaves ``start <= n < stop``, ``-inf`` for a
    zero term: ``size(start)``, then the steps ``log2 |N(n) / D(n)|``."""
    logs, size = [], walk.size(start) if start < len(walk.leaves) else 0.0
    for a, d, v, u in walk.leaves[start:stop]:
        logs.append(size + math.log2(abs(u)) - math.log2(abs(v * d)) if u else -math.inf)
        size += math.log2(abs(a)) - math.log2(abs(d)) if a else 0.0
    return logs


def fit_rate(points):
    """Least-squares slope of ``-log10 |x_i|`` against ``i`` over the points
    ``(i, log2 |x_i|)``; None for fewer than 3."""
    if len(points) < 3:
        return None
    return -statistics.linear_regression(*zip(*points)).slope * math.log10(2)


def fit_rate_311(points):
    """``fit_rate`` with the slope of CPython 3.11's ``linear_regression``."""
    if len(points) < 3:
        return None
    x, y = zip(*points)
    n = len(x)
    xbar = fsum(x) / n
    ybar = fsum(y) / n
    sxy = fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    sxx = fsum((d := xi - xbar) * d for xi in x)
    return -(sxy / sxx) * math.log10(2)


def rate_points(walks, n):
    """The points of ``EvalResult.measured_rate`` of a sum stopped at ``n``: the
    largest core's ``log2 |t(i) w(i)|`` for ``n // 2 <= i < n``, zero terms
    left out."""
    logs = (term_logs(walk, n // 2, n) for walk in walks)
    logs = itertools.zip_longest(range(n // 2, n), *logs, fillvalue=-math.inf)
    return [(i, x) for i, *xs in logs if (x := max(xs)) > -math.inf]


def measured_rate(walks, n):
    """``EvalResult.measured_rate`` of a sum stopped at ``n``."""
    return fit_rate(rate_points(walks, n))


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
