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
"""

import itertools
import math
import statistics
from fractions import Fraction
from math import fsum, gcd, lcm

from betaseries.engine import EvaluationError
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
