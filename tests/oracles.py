"""Rational-arithmetic oracles of the integer polynomial kernel.

``polynomials`` does its exact work on tuples of ints: a primitive remainder
sequence for gcds and Sturm chains, and exact division by a primitive
divisor.  These functions do the same work the textbook way, on
``Polynomial``s over Q (``Fraction`` coefficients, monic gcds by Euclid's
algorithm, a Sturm chain of remainders over Q), and share no code with the
kernel beyond ``Polynomial`` and ``poly_divmod``.  The tests require equal
results, and a CI step runs the agreement on many more random polynomials.
"""

import itertools
import math
from fractions import Fraction
from math import gcd, lcm

from betaseries.polynomials import Polynomial, horner, poly_divmod


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
