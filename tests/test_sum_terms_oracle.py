"""``sum_terms`` against a plain full-precision copy of its summation policy.

``reference_sum_terms`` computes every step (term ratios, the tail bound,
the rate fit's logarithms, the scaled partial sums) at working precision,
as the engine did before tail control and the rate fit moved to lower
precision.  The engine must stop at the same term, report the same bits for
the value and the tail bound, raise after the same number of terms, and fit
the same rate to float accuracy.
"""

import itertools
import operator
import random
import re
from collections import deque
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries.catalog import load_catalog
from betaseries.engine import (
    GUARD_DIGITS,
    EvaluationError,
    SeriesDivergenceError,
    _fit_rate,
    _log2,
    derived_terms,
    evaluate_derived,
    sum_terms,
    to_mpf,
)
from betaseries.expressions import evaluate, parse_term_expr
from betaseries.hyper import group
from betaseries.wire import hyp_spec_from_dict, series_spec_from_dict


def reference_sum_terms(terms, target_digits, prefactor=None, max_terms=100_000):
    """The summation policy with every step at working precision.

    Returns ``(value, terms_used, tail_bound, measured_rate, partial_sums)``
    with the partial sums scaled eagerly.
    """
    wp = target_digits + GUARD_DIGITS
    with mp.workdps(wp):
        pref = to_mpf(prefactor) if prefactor is not None else mpf(1)
        apref = abs(pref)
        tol = mpf(10) ** (-target_digits)
        floor = mpf(10) ** (-(target_digits + GUARD_DIGITS - 5))
        total = mpf(0)
        partials = []
        ratios = deque(maxlen=5)
        diverging = 0
        prev_abs = None
        tail = None
        for n, term in enumerate(terms):
            if n >= max_terms:
                raise EvaluationError(
                    f"tail target not reached within {max_terms} terms"
                )
            t = to_mpf(term)
            total += t
            partials.append(total)
            at = abs(t)
            if at == 0:
                continue
            if prev_abs is not None:
                r = at / prev_abs
                if r >= 1:
                    diverging += 1
                    if diverging >= 8:
                        raise SeriesDivergenceError(
                            "term ratio stayed >= 1 for 8 consecutive terms"
                        )
                else:
                    diverging = 0
                ratios.append(r)
            prev_abs = at
            if ratios:
                rhat = mpf("1.1") * max(ratios)
                if rhat < 1:
                    candidate = at * rhat / (1 - rhat) * apref
                    if candidate < tol:
                        tail = candidate
                        break
        if tail is None:
            tail = floor  # the stream ended: an exact finite sum
        noise = mpf(10) ** (-(wp - 3)) * max(mpf(1), abs(total))
        pts = []
        for i, s in enumerate(partials[:-1]):
            d = abs(s - total)
            if d <= noise:
                continue
            pts.append((i, -float(mp.log10(d))))
        rate = _fit_rate(pts[len(pts) // 2 :])
        scaled = tuple(pref * s for s in partials)
        return pref * total, len(partials), max(tail, floor), rate, scaled


class Counted:
    """A term iterator that counts the terms taken from it."""

    def __init__(self, terms):
        self.terms = iter(terms)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        term = next(self.terms)
        self.taken += 1
        return term


def assert_same(make_terms, digits, prefactor=None, max_terms=100_000):
    """Same result, or the same exception after the same number of terms."""
    ref_terms, new_terms = Counted(make_terms()), Counted(make_terms())
    try:
        expected = reference_sum_terms(ref_terms, digits, prefactor, max_terms)
    except EvaluationError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sum_terms(new_terms, digits, prefactor, max_terms)
        assert new_terms.taken == ref_terms.taken
        return None
    result = sum_terms(new_terms, digits, prefactor, max_terms)
    value, terms_used, tail_bound, rate, scaled = expected
    assert result.value == value
    assert result.terms_used == terms_used
    assert result.tail_bound == tail_bound
    if rate is None:
        assert result.measured_rate is None
    else:
        assert result.measured_rate == pytest.approx(rate, abs=1e-9)
    assert new_terms.taken == ref_terms.taken
    return result, scaled


RECORDS = {r.id: r for r in load_catalog()}


def derived(rid):
    return series_spec_from_dict(RECORDS[rid].series)


def derived_prefactor(ds, digits):
    with mp.workdps(digits + GUARD_DIGITS):
        return mp.beta(to_mpf(ds.a + 1), to_mpf(ds.b + 1)) / to_mpf(ds.z)


def hyp(rid):
    return hyp_spec_from_dict(RECORDS[rid].lhs["hyp"])


def expr_terms(text):
    expr = parse_term_expr(text)
    return lambda: (evaluate(expr, n) for n in itertools.count())


def geometric(r, t0=F(1)):
    return lambda: itertools.accumulate(itertools.repeat(r), operator.mul, initial=t0)


def at_target(delta):
    """A prefactor that puts the bound of ``geometric(-1/5)`` at 50 digits on
    ``tol * (1 + delta)`` at term 40: ``rhat = 11/50`` and ``rhat / (1 - rhat)
    = 11/39``."""
    return F(39, 11) * 5**40 / 10**50 * (1 + delta)


#: base ratios of the random streams: decay, rhat near 1, ratios near 1
BASES = [
    F(1, 2),
    F(9, 10),
    F(10, 11),
    F(907, 1000),
    1 - F(1, 2**40),
    F(1),
    1 + F(1, 2**40),
    F(11, 10),
    F(1, 10**5),
]


def random_stream(seed):
    """Terms of ratio ``base * (1 + e)``, ``e`` from ``2^-3`` down to
    ``2^-60``, with random signs, zeros, jumps and ``2^-3000`` drops."""

    def terms():
        rng = random.Random(seed)
        base = rng.choice(BASES)
        t = F(rng.choice([1, -1]) * rng.randint(1, 999), rng.randint(1, 999))
        t *= F(10) ** rng.randint(-450, 40)
        while True:
            p = rng.random()
            if p < 0.05:
                yield F(0)
                continue
            yield t
            if p < 0.08:
                r = F(1, 2**3000)
            elif p < 0.12:
                r = F(rng.randint(1, 40), 10)
            else:
                r = base * (1 + F(rng.randint(-8, 8), 2 ** rng.choice([3, 20, 45, 60])))
            t *= r * rng.choice([1, -1])

    return terms


class TestDerivedPiSeries:
    @pytest.mark.parametrize("rid", ["eq-1.1-derived", "eq-2.11-derived"])
    @pytest.mark.parametrize("digits", [300, 1000])
    def test_matches_reference(self, rid, digits):
        ds = derived(rid)
        pref = derived_prefactor(ds, digits)
        expected, _ = assert_same(lambda: derived_terms(ds), digits, pref)
        # evaluate_derived is the same call with the same prefactor
        result = evaluate_derived(ds, digits)
        assert (result.value, result.terms_used, result.tail_bound) == (
            expected.value,
            expected.terms_used,
            expected.tail_bound,
        )

    def test_partial_sums_are_the_eagerly_scaled_ones(self):
        ds = derived("eq-1.1-derived")
        expected = reference_sum_terms(
            derived_terms(ds), 300, derived_prefactor(ds, 300)
        )[4]
        assert mp.prec == 53
        partials = evaluate_derived(ds, 300).partial_sums
        assert len(partials) == len(expected)
        assert all(a == b for a, b in zip(partials, expected))

    def test_partial_sums_ignore_the_precision_at_reading(self):
        ds = derived("eq-2.11-derived")
        result = evaluate_derived(ds, 300)
        with mp.workdps(20):
            low = result.partial_sums
        expected = reference_sum_terms(
            derived_terms(ds), 300, derived_prefactor(ds, 300)
        )[4]
        assert all(a == b for a, b in zip(low, expected))
        assert result.partial_sums is low


class TestHypergeometric:
    @pytest.mark.parametrize("rid", ["eq-4.4", "eq-5.8-hyp"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_reference(self, rid, m):
        spec = group(hyp(rid), m)
        assert_same(spec.terms, 200)


class TestPolicyEdges:
    def test_interior_zero_terms(self):
        def terms():
            for n in itertools.count():
                yield F(0) if n % 3 == 1 else F(-1, 3) ** n
        assert_same(terms, 40)

    def test_terminating_series(self):
        # a stream that ends is an exact finite sum, trailing zeros included
        def terms():
            return iter([F(1), F(-1, 2), F(1, 3), F(0), F(0)])
        result, _ = assert_same(terms, 30)
        assert result.terms_used == 5
        with mp.workdps(45):
            assert abs(result.value - mpf(5) / 6) < mpf(10) ** -40

    @pytest.mark.parametrize("digits", [1, 30, 200])
    def test_slowly_settling_ratios(self, digits):
        assert_same(expr_terms("poch(1,n)/poch(1000,n)*(99/100)^n"), digits)

    def test_divergent_power(self):
        assert_same(expr_terms("2^n"), 20)

    def test_ratio_one_then_decay(self):
        # ratios of exactly 1 count toward divergence, then a drop resets
        def terms():
            return itertools.chain(
                [F(1)] * 8, (F(1, 2) ** n for n in itertools.count(1))
            )
        assert_same(terms, 25)

    def test_constant_terms_diverge(self):
        assert_same(lambda: itertools.repeat(F(1, 7)), 10)

    @pytest.mark.parametrize("digits", [1, 30, 60])
    @pytest.mark.parametrize(
        "ratio",
        [
            F(9, 10),
            F(907, 1000),
            F(10, 11),
            F(11, 12),
            1 + F(1, 2**40),
        ],
        ids=[
            "rhat-0.99",
            "rhat-0.9977",
            "rhat-1",
            "rhat-1.008",
            "ratio-1+2^-40",
        ],
    )
    def test_inflated_ratio_near_one(self, ratio, digits):
        # rhat = 1.1 * ratio at or near 1, or a ratio within the float
        # filter's slack of 1, where the filter defers to working precision
        assert_same(geometric(ratio), digits, max_terms=2000)

    @pytest.mark.parametrize(
        "prefactor",
        [
            F(-3, 7),
            mpf(2) ** -300,
            10**40,
            pytest.param(10**400, id="1e400"),
            pytest.param(at_target(0), id="bound-at-tol"),
            pytest.param(at_target(F(1, 2**42)), id="bound-above-tol"),
            pytest.param(at_target(-F(1, 2**42)), id="bound-below-tol"),
        ],
    )
    def test_prefactor_scales_the_target(self, prefactor):
        result, scaled = assert_same(geometric(F(-1, 5)), 50, prefactor)
        assert all(a == b for a, b in zip(result.partial_sums, scaled))

    @pytest.mark.parametrize(
        "terms, prefactor",
        [
            (geometric(1 - F(1, 2**40)), None),
            (lambda: iter([F(1), F(1, 2**3000), F(1, 2**3001)]), None),
            (lambda: itertools.chain([F(1)] * 3, [F(1, 2**3000)]), None),
            (geometric(F(-1, 3), F(1, 10**400)), None),
            (geometric(F(-1, 5), F(7, 10**401)), 10**400),
        ],
        ids=[
            "ratio-1-2^-40",
            "drop-2^-3000",
            "drop-after-ones",
            "below-1e-400",
            "below-1e-400-scaled",
        ],
    )
    def test_filter_edges(self, terms, prefactor):
        # a ratio within the float filter's slack of 1, and log2 |t| far
        # from 0, where the slack grows with it
        assert_same(terms, 40, prefactor, max_terms=100)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_streams(self, chunk):
        for seed in range(25 * chunk, 25 * chunk + 25):
            rng = random.Random(-seed - 1)
            digits = rng.choice([1, 5, 20, 40])
            prefactor = rng.choice([None, F(-3, 7), 10**40, F(1, 10**40)])
            assert_same(random_stream(seed), digits, prefactor, max_terms=300)


@pytest.mark.parametrize("bits", [1, 2, 52, 53, 54, 64, 1024, 1025, 20_000])
@pytest.mark.parametrize("exp", [-(10**6), -1000, -1, 0, 1, 10**6])
def test_log2_is_within_its_error_bound(bits, exp):
    rng = random.Random(bits * 7 + exp)
    for _ in range(20):
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        with mp.workprec(bits):
            x = mp.ldexp(mpf(man), exp)
            negative = -x
        with mp.workprec(120):
            exact = mp.log(x, 2)
        assert abs(_log2(x) - exact) <= 2.0**-45 * max(1, abs(exact))
        assert _log2(negative) == _log2(x)
