"""From-scratch terms: the oracle of the recurrence-vs-scratch tests.

The package generates every term by a ratio recurrence; these functions
compute term ``n`` directly as closed Pochhammer products.
"""

from betaseries import pochhammer, weight_values


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
    """Term ``n`` of a ``DerivedSeries``: Pochhammer products times ``w(n)``."""
    t = pochhammer(ds.a + 1, ds.k * n) * pochhammer(ds.b + 1, ds.s * n)
    t /= pochhammer(ds.a + ds.b + 2, (ds.k + ds.s) * n) * ds.z**n
    return t * weight_values(ds, n)
