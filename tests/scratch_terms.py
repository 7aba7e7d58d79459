"""From-scratch terms: the oracle of the recurrence-vs-scratch tests.

The package generates every term by a ratio recurrence; these functions
compute term ``n`` directly as closed Pochhammer products.
"""

from fractions import Fraction
from itertools import accumulate

from betaseries import pochhammer
from betaseries.expressions import evaluate, parse_term_expr, pochhammer_pair


def _poch_ratio(spec, shift, n):
    """``prod_g (x_g + shift)_n / (y_g + shift)_n`` over the spec's pairs."""
    t = 1
    for x, y in zip(spec.upper, spec.lower):
        t *= pochhammer(x + shift, n) / pochhammer(y + shift, n)
    return t


def hyp_term(spec, n):
    """Term ``n`` of a ``HypSeriesSpec``: ``z^n prod_g (x_g)_n / (y_g)_n``."""
    return spec.z**n * _poch_ratio(spec, 0, n)


def grouped_term(grouped, n):
    """``hyp_term(base, mn) * sum_{j<m} z^j prod_g (x_g+mn)_j / (y_g+mn)_j``."""
    base, m = grouped.base, grouped.m
    inner = sum(base.z**j * _poch_ratio(base, m * n, j) for j in range(m))
    return hyp_term(base, m * n) * inner


def derived_term(ds, n):
    """Term ``n`` of a ``DerivedSeries``, weight included, in closed form.

    ``sum_j q_j (a+1)_{kn+j} (b+1)_{sn} / ((a+b+2)_{(k+s)n+j} z^n)`` over the
    coefficients ``q_j`` of Q; it shares no code with ``weight_values``.
    """
    a, b, k, s = ds.a, ds.b, ds.k, ds.s
    common = pochhammer(b + 1, s * n) / ds.z**n
    return sum(
        q * common * pochhammer(a + 1, k * n + j)
        / pochhammer(a + b + 2, (k + s) * n + j)
        for j, q in enumerate(ds.qcoeffs)
    )


def pochhammer_ratio(core, n):
    """``r(n) = c prod (q + pn)_p / prod (q' + p'n)_{p'}`` of a ``HypTerms``
    core, one ``pochhammer_pair`` per symbol; it shares no code with
    ``HypTerms.integer_ratio``."""
    top, bottom = core.c.numerator, core.c.denominator
    for p, q in core.num:
        u, v = pochhammer_pair(q + p * n, p)
        top, bottom = top * u, bottom * v
    for p, q in core.den:
        u, v = pochhammer_pair(q + p * n, p)
        top, bottom = top * v, bottom * u
    return Fraction(top, bottom)


def core_terms(core, count):
    """``(t(n), w(n))`` for ``n < count`` of a ``HypTerms`` core: ``t`` stepped
    by ``pochhammer_ratio``, ``w`` summed from the weight's coefficients; it
    shares no code with the engine's integer forms or its binary splitting."""
    top, bottom = core.weight
    t, pairs = core.t0, []
    for n in range(count):
        w = Fraction(sum(c * n**k for k, c in enumerate(top)))
        pairs.append((t, w / sum(c * n**k for k, c in enumerate(bottom))))
        t = t * pochhammer_ratio(core, n) if t else t
    return pairs


def expr_terms(text, count):
    """The first ``count`` terms of a printed summand, each in closed form."""
    expr = parse_term_expr(text)
    return [evaluate(expr, n) for n in range(count)]


def partial_sums(terms):
    """The exact partial sums of a sequence of terms."""
    return list(accumulate(terms))
