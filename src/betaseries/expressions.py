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

Operators associate left within a precedence level.  The reader takes the
tokens in one pass, with its own stack of pending operators, parentheses
and calls, so nesting costs no recursion, and folds the summand, as it
reads it, into its normal form ``TermExpr``: a tuple of term cores
(``cores.HypTerms``)

    c^n prod (q)_{pn} / prod (q')_{p'n} * A(n) / B(n),

with Pochhammer symbols ``(p, q)`` and integer polynomials ``A``, ``B``.
While folding, a constant is a pair of ints ``(u, v)`` in lowest terms, so
literals, constant factors and constant quotients build no product; a
product carries ``c`` as such a pair and ``A / B`` as integer coefficients,
multiplied and added by the integer kernel of ``polynomials``.  When the
whole summand is read, each product becomes one interned core with ``t0 =
1``, whose weight is ``(A, B)`` without common content and with ``B``
leading positive.  Products that share ``(c, num, den)`` are merged, so
every catalog summand is one core.  ``fact(pn+q)`` is ``q! (q+1)_{pn}``,
``poch(x, pn+q)`` is ``(x)_q (x+q)_{pn}``, ``c^(pn+q)`` is ``c^q
(c^p)^n``, a constant ``binom`` is ``math.comb``, and any other a quotient
of factorials, the last rewritten so that the product is 0 exactly where
the binomial is.  ``engine.evaluate_expr`` sums the cores; ``evaluate`` is
their closed form, kept as an independent check.

Arguments of ``fact`` and ``binom``, and the length of ``poch``, must be
``c1*n + c0`` with nonnegative integers ``c1, c0``; a ``poch`` base and the
base of a variable power must be constant rationals.  The parser checks
each node as it folds it.  A violation is a semantic error at the position
of the offending function name or operator: ``fact(n/2)`` fails at ``1:1``,
``0^(n-1)`` at the ``^``, and ``n/0`` at the ``/``.  So does a divisor, or a
base with a negative exponent, that is a sum of unlike products, such as
``1/(2^n+1)``: it is not hypergeometric.  Only a zero that appears at some
index ``n`` (``1/(n-1)``) is left to evaluation, which raises
``ZeroDivisionError`` naming that ``n``.  A constant power ``x^k`` that may
fold past ``MAX_FOLD_SIZE`` is a semantic error at its ``^``, a constant
that ``fact``, ``binom`` or ``poch`` would fold past it one at the function
name, and an integer literal with more digits than ``int`` converts is a
syntax error.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Tuple, Union

from .cores import HypTerms, interned
from .polynomials import coeff_product, coeff_sum, horner, integer_coefficients


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

#: a parsed summand: the sum of its cores (the empty sum is 0)
TermExpr = Tuple[HypTerms, ...]


def evaluate(expr: TermExpr, n: int) -> Fraction:
    """Exact value at index ``n``, each core from its closed form."""
    total = Fraction(0)
    for core in expr:
        (a, b), num, den = core.weight, core.num, core.den
        top = core.t0 * core.c**n * horner(a, n) * math.prod(pochhammer(q, k * n) for k, q in num)
        bottom = horner(b, n) * math.prod(pochhammer(q, k * n) for k, q in den)
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
# Folding: a value is a constant (u, v) or a list of products (c, num, den,
# A, B), with c a constant and a / b proportional to A / B
# --------------------------------------------------------------------------

#: the most a constant power may fold to: its products times the largest of
#: their integers' bits and their counts of coefficients and symbols; and the
#: most the constant of a ``fact``, ``binom`` or ``poch`` may fold to
MAX_FOLD_SIZE = 2048

_ONE, _ZERO = (1, 1), (0, 1)


class _Refusal(Exception):
    """A semantic error, raised without its position, which the reader adds."""


def _const(u, v):
    """``u / v`` in lowest terms with a positive denominator."""
    g = math.gcd(u, v) * (-1) ** (v < 0)
    return u // g, v // g


def _lift(x):
    """``x`` as a list of products."""
    return x if type(x) is list else [(_ONE, (), (), x[:1], x[1:])] if x[0] else []


def _polynomial(x):
    """The coefficients of ``x`` as pairs, lowest first, if it is a
    polynomial in n; else None."""
    if type(x) is tuple or not x:
        return [x or _ZERO]
    (c, num, den, a, b), *rest = x
    if not rest and c == _ONE and not num + den and len(b) == 1:
        return [_const(u, b[0]) for u in a]


def _constant(x):
    """``x`` as a pair if it is a constant, else None."""
    p = _polynomial(x)
    if p and len(p) == 1:
        return p[0]


def _single(c, num, k):
    """``c^n num k`` for a rational ``k = (u, v)``."""
    return [(c, num, (), k[:1], k[1:])] if k[0] else []


def _merge(products):
    """The sum, with the products that share ``(c, num, den)`` merged."""
    merged = {}
    for c, num, den, a, b in products:
        key = c, num, den
        a0, b0 = merged.get(key, ((), b))
        if b0 != b:
            # over b0 b, or over b0 lead(b) where b0 and b are one monic b
            u, v = b0[-1:], b[-1:]
            if coeff_product(b0, v) != coeff_product(b, u):
                u, v = b0, b
            a0, a, b = coeff_product(a0, v), coeff_product(a, u), coeff_product(b0, v)
        merged[key] = coeff_sum(a0, a), b
    return [(*key, a, b) for key, (a, b) in merged.items() if a]


def _mul(x, y):
    if type(x) is tuple:
        x, y = y, x
    if type(x) is tuple:
        return _const(x[0] * y[0], x[1] * y[1])
    products = []
    for c, num, den, a, b in x:
        for c2, num2, den2, a2, b2 in _lift(y):
            num3, den3 = num + num2, den + den2
            if num + den and num2 + den2:
                den3 = sorted(den3)
                # a symbol in both cancels (list.remove returns None)
                num3 = tuple(s for s in sorted(num3) if s not in den3 or den3.remove(s))
                den3 = tuple(den3)
            products.append((_mul(c, c2), num3, den3, coeff_product(a, a2), coeff_product(b, b2)))
    return _merge(products) if len(products) > 1 else products


def _inverse(x, zero):
    """``1 / x`` for a constant or one product; ``zero`` names the error of
    ``x = 0``."""
    if type(x) is tuple and x[0]:
        return _const(x[1], x[0])
    x = _lift(x)
    if not x or not x[0][0][0]:
        raise _Refusal(zero)
    if len(x) > 1:
        raise _Refusal("not hypergeometric: 1 / a sum of unlike products")
    c, num, den, a, b = x[0]
    return [(_inverse(c, zero), den, num, b, a)]


def _power(x, y):
    """``x ^ y`` for an integer ``y``, or an integer linear form ``y`` in
    ``n`` over a constant ``x``.  ``x^k`` is refused when it may fold past
    ``MAX_FOLD_SIZE``: it has at most ``C(k+m-1, k)`` products, for ``m``
    in ``x``, each at most ``k`` times as large."""
    k = _constant(y)
    if k is None:
        c = _constant(x)
        if c is None:
            raise _Refusal("variable exponent requires a constant rational base")
        f = _polynomial(y)
        if f is None or len(f) > 2 or f[0][1] * f[1][1] != 1:
            raise _Refusal("exponent must be an integer-valued linear form in n")
        (q, _), (p, _) = f
        if not c[0] and (p < 0 or q < 0):
            raise _Refusal("zero base with possibly negative exponent")
        return _single(_power(c, (p, 1)), (), _power(c, (q, 1)))
    k, one = k
    if one != 1:
        raise _Refusal("constant exponent must be an integer")
    if k < 0:
        x, k = _inverse(x, "zero base with negative exponent"), -k
    m = _lift(x)
    if k > 1 and math.comb(k + len(m) - 1, k) * k * max(
        (max(len(num + den + a + b), *map(int.bit_length, c + a + b)) for c, num, den, a, b in m), default=0
    ) > MAX_FOLD_SIZE:
        raise _Refusal(f"power folds past size {MAX_FOLD_SIZE}")
    result = _ONE
    while k:
        if k & 1:
            result = _mul(result, x)
        k >>= 1
        if k:
            x = _mul(x, x)
    return result


def _linear(x, what):
    """``(c1, c0)`` of ``x = c1*n + c0`` for integers ``c1, c0 >= 0``."""
    p = _polynomial(x)
    if p is None or len(p) > 2:
        raise _Refusal(f"{what} must be linear in n")
    (c0, v0), (c1, v1) = p + [_ZERO] * (2 - len(p))
    if v0 * v1 != 1:
        raise _Refusal(f"{what} must have integer coefficients")
    if c0 < 0 or c1 < 0:
        raise _Refusal(f"{what} must be a nonnegative integer for all n >= 0")
    return c1, c0


def _product(factors):
    """The product of integer polynomials, refused as soon as it folds past
    ``MAX_FOLD_SIZE`` by its count of coefficients or their largest bits.
    Neither falls for the factors multiplied here: nonzero integers, and
    ``en + j`` for ``j <= 0 < e``, whose products' signs alternate alike."""
    product = (1,)
    for x in factors:
        product = coeff_product(product, x)
        if max(len(product), *map(int.bit_length, product)) > MAX_FOLD_SIZE:
            raise _Refusal(f"constant folds past size {MAX_FOLD_SIZE}")
    return product


def _reciprocal_factorial(e, f):
    """``1 / (en + f)!``, taken as 0 wherever ``en + f < 0``."""
    if f < 0:
        # 1/(en + f)! = (en + f + 1) ... (en) / (en)!, where one factor is 0
        # wherever 0 <= en < -f; and en + f < 0 for every n >= 0 if e <= 0
        a = _product((j, e) for j in range(f + 1, 1)) if e > 0 else ()
        return [(_ONE, (), ((e, Fraction(1)),), a, (1,))] if a else []
    # 1/(f - kn)! = (f - kn + 1) ... (f) / f! = (-1)^{kn} (-f)_{kn} / f!,
    # and otherwise 1/(en + f)! = 1 / (f! (f + 1)_{en})
    c, num, den = (((-1) ** -e, 1), ((-e, Fraction(-f)),), ()) if e < 0 else (_ONE, (), ((e, Fraction(f + 1)),) if e else ())
    return [(c, num, den, (1,), _product((j,) for j in range(2, f + 1)))]


def _combine(op, x, y):
    """``x op y``, or the call ``op(x, y)`` or ``op(y)``, told apart by the
    first character of the token; a unary '-' is ``0 - y``."""
    op = op[0]
    if op == "*":
        return _mul(x, y)
    if op == "/":
        return _mul(x, _inverse(y, "division by zero constant"))
    if op == "^":
        return _power(x, y)
    if op == "(":
        return y
    if op in "+-":
        if op == "-":
            y = _mul((-1, 1), y)
        if type(x) is tuple and type(y) is tuple:
            return _const(x[0] * y[1] + y[0] * x[1], x[1] * y[1])
        return _merge(_lift(x) + _lift(y))
    if op == "f":
        return _inverse(_reciprocal_factorial(*_linear(y, "factorial argument")), "")
    if op == "b":
        a, b = _linear(x, "binomial argument")
        c, d = _linear(y, "binomial argument")
        if not a and not c:  # a constant: its size is at most min(d, b - d) times b's bits
            if min(d, b - d) * b.bit_length() > MAX_FOLD_SIZE:
                raise _Refusal(f"constant folds past size {MAX_FOLD_SIZE}")
            return math.comb(b, d), 1
        top = _inverse(_reciprocal_factorial(a, b), "")
        return _mul(_mul(top, _reciprocal_factorial(c, d)), _reciprocal_factorial(a - c, b - d))
    base = _constant(x)
    if base is None:
        raise _Refusal("poch base must be a constant rational")
    p, q = _linear(y, "pochhammer length")
    u, v = base
    steps = range(u, u + q * v, v)
    # (u/v)_q = prod (u + jv) / v^q: 0 if a factor is; else all factors but
    # two add a bit, so a numerator that folds leaves q < MAX_FOLD_SIZE + 3
    k = (_product((x,) for x in steps)[0], _product([(v,)] * q)[0]) if 0 not in steps else _ZERO
    return _single(_ONE, ((p, Fraction(u, v) + q),) if p else (), k)


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------

#: a call's name and its '(' are one token
_TOKEN = re.compile(r"\d+|(?:fact|binom|poch)\s*\(|[^\W\d]\w*|\S")
_BAD = re.compile(r"[^\w\s\-+*/^(),]")
#: binding levels; a unary '-', at 3, binds tighter than '*' and '/'
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _error(kind, message, text, i):
    """``kind`` error at token ``i`` of ``text``, whose line and column are
    counted only here."""
    offset = [m.start() for m in _TOKEN.finditer(text + ".")][i]  # '.': the end
    return kind(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _fold(text):
    """The folded value of ``text``, read in one pass over its tokens."""
    tokens = _TOKEN.findall(text) + [""]
    bad = _BAD.search(text)
    if bad:  # the first token that is this character
        raise _error(ExprSyntaxError, f"unexpected character {bad.group()!r}", text, tokens.index(bad.group()))
    # pending (level, token, left operand): an operator, a unary '-' as 0 - x;
    # and (0, token, first argument or None, the token due to close it): a
    # parenthesis or call, all above the whole text, whose token is the end
    stack = [(0, -1, None, "")]
    x = None  # the value just read, while an operator is due
    try:
        for i, t in enumerate(tokens):
            if x is not None:
                level = _LEVEL.get(t, 1)
                while stack[-1][0] >= level:
                    _, j, left = stack.pop()
                    x = _combine(tokens[j], left, x)
                if t in _LEVEL:
                    stack.append((level, i, x))
                    x = None
                else:
                    _, j, first, want = stack.pop()
                    if t != want:
                        break
                    if not want:
                        return x
                    if want == ",":
                        stack.append((0, j, x, ")"))
                        x = None
                    else:
                        x = _combine(tokens[j], first, x)
            elif t == "n":
                x = [(_ONE, (), (), (0, 1), (1,))]
            elif t.isdecimal():
                try:
                    x = int(t), 1
                except ValueError:  # more digits than int() converts
                    break
            elif t == "-" and stack[-1][0] != 4:
                stack.append((3, i, _ZERO))
            elif t[-1:] == "(":  # binom and poch take two arguments
                stack.append((0, i, None, "," if t[0] in "bp" else ")"))
            else:
                break
    except _Refusal as exc:
        raise _error(ExprSemanticError, str(exc), text, j) from None
    call = x is None and t in ("fact", "binom", "poch")  # a call's name without its '('
    i += call
    t = tokens[i]
    found = repr(t.partition("(")[0].rstrip() or t or "end of input")  # a call by its name
    if call:
        message = f"expected '(', found {found}"
    elif x is not None:
        message = f"expected {want!r}, found {found}" if want else f"unexpected trailing input {found}"
    elif t.isdecimal():
        message = f"integer literal too long: {len(t)} digits"
    else:  # "+-*/^)," holds the end, ""
        message = f"expected a value, found {found}" if t in "+-*/^)," else f"unknown name {found}"
    raise _error(ExprSyntaxError, message, text, i)


def parse_term_expr(text: str) -> TermExpr:
    """Parse a summand in the grammar into its term cores, checking it on the way."""
    cores = []
    for c, num, den, a, b in _lift(_fold(text)):
        sign = -1 if b[-1] < 0 else 1
        weight = integer_coefficients([sign * x for x in a], [sign * x for x in b])
        cores.append(interned(HypTerms(Fraction(1), Fraction(*c), num, den, weight)))
    return tuple(cores)
