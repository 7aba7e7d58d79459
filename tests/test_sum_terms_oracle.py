"""``sum_terms`` against mpmath: every reported bound holds and meets its target.

Each case checks ``|value - reference| <= tail_bound < 10^-d``, with the
reference computed by mpmath at ``d + 30`` digits, apart from the package:
``mp.hyper`` for the series (a Pochhammer symbol ``(q)_{pn}`` is
``p^{pn} prod_{y<p} ((q + y) / p)_n``), ``mp.beta`` for the derived
prefactor, ``mp.pi`` for the pi series, and a direct mpmath sum of the
closed-form terms (``expressions.evaluate``) for the printed summands.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries.catalog import load_catalog
from betaseries.cores import SeriesDivergenceError
from betaseries.engine import (
    GUARD_BITS,
    EvaluationError,
    HypTerms,
    _beta_cores,
    _split,
    _Walk,
    evaluate_derived,
    evaluate_expr,
    sum_terms,
)
from betaseries.expressions import evaluate, parse_term_expr
from betaseries.hyper import _log2, eval_hyp, group
from betaseries.polynomials import Polynomial, integer_coefficients
from betaseries.wire import hyp_spec_from_dict, series_spec_from_dict
from scratch_terms import core_terms, derived_term, expr_terms

RECORDS = {r.id: r for r in load_catalog()}


def num(q):
    return mpf(q.numerator) / q.denominator


def assert_sound(result, reference, digits):
    """``|value - reference| <= tail_bound < 10^-digits``; ``reference`` is
    called at ``digits + 30`` digits after the point."""
    with mp.workdps(digits + 30 + max(0, int(mp.log10(abs(result.value) + 1)))):
        err = abs(result.value - reference())
        assert err <= result.tail_bound, (mp.nstr(err, 5), result.tail_bound)
        assert result.tail_bound < mpf(10) ** -digits


def core_reference(cores):
    """``sum_n sum_cores t(n) w(n)`` by ``mp.hyper``, for cores whose weight
    is a product ``k prod (n + a) / prod (n + b)`` given as ``(k, a's, b's)``
    (``(n + a) = a (a + 1)_n / (a)_n``)."""

    def value():
        total = mpf(0)
        for core, (k, tops, bottoms) in cores:
            upper, lower, x = [], [], core.c
            for side, params in ((core.num, upper), (core.den, lower)):
                for p, q in side:
                    params.extend(num((q + y) / p) for y in range(p))
                    x = x * p**p if side is core.num else x / p**p
            upper += [num(a + 1) for a in tops] + [num(b) for b in bottoms]
            lower += [num(a) for a in tops] + [num(b + 1) for b in bottoms]
            scale = k * core.t0
            for a in tops:
                scale *= a
            for b in bottoms:
                scale /= b
            total += num(scale) * mp.hyper(upper + [1], lower, num(x))
        return total

    return value


def weighted(core, k=F(1), tops=(), bottoms=()):
    """``core`` with the weight ``k prod (n + a) / prod (n + b)``, and the
    data ``core_reference`` needs."""
    top, bottom = Polynomial.constant(k), Polynomial.one()
    for a in tops:
        top = top * Polynomial((a, 1))
    for b in bottoms:
        bottom = bottom * Polynomial((b, 1))
    weight = integer_coefficients(top.coeffs, bottom.coeffs)
    core = HypTerms(core.t0, core.c, core.num, core.den, weight)
    return core, (k, tuple(tops), tuple(bottoms))


def geometric(c, t0=F(1)):
    return weighted(HypTerms(F(t0), F(c), (), ()))


def at_target(delta):
    """A prefactor that puts the tail bound of ``geometric(-1/5)`` after 40
    terms, ``|t_40| / (1 - 1/5)``, at ``10^-50 (1 + delta)``."""
    return F(4, 5) * 5**40 / 10**50 * (1 + delta)


# --------------------------------------------------------------------------
# Catalog series
# --------------------------------------------------------------------------


DERIVED_IDS = sorted(rid for rid, r in RECORDS.items() if r.kind == "duality")


def derived_reference(ds):
    """``B(a+1, b+1) / z * sum_j q_j (a+1)_j / (a+b+2)_j * F_j``, ``F_j`` the
    hypergeometric series of ``(a+1+j)_{kn} (b+1)_{sn} / ((a+b+2+j)_{(k+s)n} z^n)``."""

    def value():
        a, b, k, s = ds.a, ds.b, ds.k, ds.s
        x = F(k**k * s**s, (k + s) ** (k + s)) / ds.z
        total = mpf(0)
        for j, q in enumerate(ds.qcoeffs):
            upper = [num((a + 1 + j + y) / k) for y in range(k)]
            upper += [num((b + 1 + y) / s) for y in range(s)]
            lower = [num((a + b + 2 + j + y) / (k + s)) for y in range(k + s)]
            lead = mp.rf(num(a + 1), j) / mp.rf(num(a + b + 2), j)
            total += num(q) * lead * mp.hyper(upper + [1], lower, num(x))
        return mp.beta(num(a + 1), num(b + 1)) / num(ds.z) * total

    return value


def summands(recipe):
    """Every printed summand in a catalog recipe."""
    if isinstance(recipe, dict):
        if "expr" in recipe:
            yield recipe["expr"]
        for value in recipe.values():
            yield from summands(value)
    elif isinstance(recipe, list):
        for value in recipe:
            yield from summands(value)


class TestCatalogSeries:
    def test_eleven_derived_records(self):
        assert len(DERIVED_IDS) == 11

    @pytest.mark.parametrize("digits", [None, 100, 300])
    @pytest.mark.parametrize("rid", DERIVED_IDS)
    def test_derived_records(self, rid, digits):
        digits = digits or RECORDS[rid].digits
        ds = series_spec_from_dict(RECORDS[rid].series)
        assert_sound(evaluate_derived(ds, digits), derived_reference(ds), digits)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "rid",
        sorted(
            rid
            for rid, r in RECORDS.items()
            if r.kind == "grouping" or isinstance(r.lhs, dict) and "hyp" in r.lhs
        ),
    )
    def test_hyp_specs(self, rid, m):
        record = RECORDS[rid]
        doc = record.base if record.kind == "grouping" else record.lhs["hyp"]
        spec = hyp_spec_from_dict(doc)
        reference = core_reference([(spec.core, (1, (), ()))])
        for digits in (record.digits, 300):
            assert_sound(eval_hyp(group(spec, m), digits), reference, digits)

    @pytest.mark.parametrize(
        "rid", sorted(rid for rid, r in RECORDS.items() if any(summands(r.lhs)))
    )
    def test_printed_summands(self, rid):
        record = RECORDS[rid]
        for text in summands(record.lhs):
            result = evaluate_expr(text, record.digits)
            reference = closed_form_sum(text, result, record.digits)
            assert_sound(result, reference, record.digits)

    @pytest.mark.parametrize("digits", [10, 20, 40])
    def test_poch3(self, digits):
        # the ratios rise toward 1/2 for a long stretch: (n+1)^3 / (n+50)^3 / 2
        result = evaluate_expr("poch(1,n)^3/poch(50,n)^3*(1/2)^n", digits)
        reference = lambda: mp.hyper([1, 1, 1, 1], [50, 50, 50], mpf(1) / 2)
        assert_sound(result, reference, digits)


def closed_form_sum(text, result, digits):
    """The closed-form terms summed in mpmath, on to where the last ten are
    below ``10^-(digits + 40)`` and at least twice as far as the engine went."""
    expr = parse_term_expr(text)

    def value():
        total, small, n = mpf(0), 0, 0
        while small < 10 or n < 2 * result.terms_used + 10:
            term = evaluate(expr, n)
            total += num(term)
            small = small + 1 if abs(term) < F(1, 10 ** (digits + 40)) else 0
            n += 1
        return total

    return value


# --------------------------------------------------------------------------
# The pi series and their partial sums
# --------------------------------------------------------------------------


PI_SERIES = {
    "eq-1.1-derived": lambda: mp.pi * mp.sqrt(3) / 3,
    "eq-2.11-derived": lambda: mp.pi * mp.sqrt(3) / 9,
}


def derived(rid):
    return series_spec_from_dict(RECORDS[rid].series)


class TestDerivedPiSeries:
    @pytest.mark.parametrize("rid", ["eq-1.1-derived", "eq-2.11-derived"])
    @pytest.mark.parametrize("digits", [300, 1000])
    def test_matches_reference(self, rid, digits):
        assert_sound(evaluate_derived(derived(rid), digits), PI_SERIES[rid], digits)

    def test_value_is_the_exact_partial_sum(self):
        # the prefactor times the exact sum of the terms used, from closed
        # Pochhammer products, far inside the bound: only the prefactor's
        # last bits and one rounding separate them
        ds = derived("eq-1.1-derived")
        result = evaluate_derived(ds, 300)
        exact = sum(derived_term(ds, n) for n in range(result.terms_used))
        with mp.workdps(340):
            pref = mp.beta(num(ds.a + 1), num(ds.b + 1)) / num(ds.z)
            assert abs(result.value - pref * num(exact)) <= mpf(10) ** -310

    def test_value_ignores_the_precision_at_the_call(self):
        with mp.workdps(20):
            low = evaluate_derived(derived("eq-2.11-derived"), 300)
        assert mp.prec == 53
        assert low == evaluate_derived(derived("eq-2.11-derived"), 300)
        with mp.workdps(330):
            assert abs(low.value - PI_SERIES["eq-2.11-derived"]()) <= low.tail_bound


class TestHypergeometric:
    @pytest.mark.parametrize("rid", ["eq-4.4", "eq-5.8-hyp"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_reference(self, rid, m):
        spec = hyp_spec_from_dict(RECORDS[rid].lhs["hyp"])
        reference = core_reference([(spec.core, (1, (), ()))])
        assert_sound(eval_hyp(group(spec, m), 200), reference, 200)


# --------------------------------------------------------------------------
# Binary splitting against the exact oracle
# --------------------------------------------------------------------------

# a printed summand of two products: term n is the sum of both cores' terms
TWO_PRODUCTS = "poch(1/2,n)/fact(n)*(1/4)^n+(-1/5)^n/(n+1)"


def split_cores():
    """Derived, hypergeometric, grouped m = 3 and two-product cores."""
    hyp = hyp_spec_from_dict(RECORDS["eq-5.8-hyp"].lhs["hyp"])
    return {
        "derived": [derived("eq-1.1-derived").core],
        "derived-V": [derived("eq-2.11-derived").core],
        "hyp": [hyp.core],
        "grouped-m3": [group(hyp, 3).core],
        "grouped-catalan-m3": [
            group(hyp_spec_from_dict(RECORDS["eq-5.7-grouping-m3"].base), 3).core
        ],
        "two-products": list(parse_term_expr(TWO_PRODUCTS)),
    }


def tail_bound_at(cores, n):
    """The proven tail bound from term ``n`` (``HypTerms.tail_forms`` at the
    exact ``|t(n)|``) in Fractions; None where the forms do not apply."""
    total = F(0)
    for core in cores:
        t = core_terms(core, n + 1)[n][0]
        if not t:
            continue  # the terms ended
        forms = core.tail_forms
        if forms is None or n < forms[0]:
            return None
        p, q, top, bottom = (sum(c * n**k for k, c in enumerate(f)) for f in forms[1:])
        if p >= q or bottom <= 0:
            return None
        total += abs(t) * top * q / (bottom * (q - p))
    return total


class TestBinarySplitting:
    @pytest.mark.parametrize("name", sorted(split_cores()))
    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_split_is_the_exact_partial_sum(self, name, n):
        # t0 T / (V Q) is the sum of the first n terms, t0 P / Q is t(n)
        for core in split_cores()[name]:
            walk = _Walk(core)
            walk.extend(n)
            p, q, v, t = _split(walk.leaves[:n])
            pairs = core_terms(core, n + 1)
            assert core.t0 * F(t, v * q) == sum(t * w for t, w in pairs[:n])
            assert core.t0 * F(p, q) == pairs[n][0]

    def test_two_products_sum_their_terms(self):
        cores = split_cores()["two-products"]
        total = F(0)
        for core in cores:
            walk = _Walk(core)
            walk.extend(25)
            p, q, v, t = _split(walk.leaves)
            total += core.t0 * F(t, v * q)
        assert total == sum(expr_terms(TWO_PRODUCTS, 25))

    @pytest.mark.parametrize("name", sorted(split_cores()))
    @pytest.mark.parametrize("digits", [10, 35, 100])
    def test_stop_is_the_first_proven_index(self, name, digits):
        # the bound recomputed in Fractions holds at N and fails at N - 1
        cores = split_cores()[name]
        result = sum_terms(cores, digits)
        n, target = result.terms_used, F(1, 10**digits)
        assert tail_bound_at(cores, n) < target
        before = tail_bound_at(cores, n - 1)
        assert before is None or before >= target * (1 - F(1, 2**60))
        exact = sum(t * w for core in cores for t, w in core_terms(core, n))
        with mp.workdps(digits + 30 + max(0, int(mp.log10(abs(result.value) + 1)))):
            assert abs(result.value - num(exact)) <= num(target) / 2**62


# --------------------------------------------------------------------------
# Edges of the proven stop
# --------------------------------------------------------------------------


class TestPolicyEdges:
    def test_interior_zero_terms(self):
        # (n - 1)(n - 4)(-1/3)^n: weights that vanish mid-series
        core, _ = weighted(HypTerms(F(1), F(-1, 3), (), ()), F(1), (-1, -4))
        x = F(-1, 3)
        exact = x * (1 + x) / (1 - x) ** 3 - 5 * x / (1 - x) ** 2 + 4 / (1 - x)
        assert_sound(sum_terms([core], 40), lambda: num(exact), 40)

    def test_terminating_series(self):
        # (-4)_n (-1/2)^n / n! = binom(4, n) 2^-n: an exact finite sum
        core = HypTerms(F(1), F(-1, 2), ((1, F(-4)),), ((1, F(1)),))
        result = sum_terms([core], 30)
        assert result.terms_used == 5
        assert result.value == mpf(81) / 16
        # exact in binary: one unit 2^-W of the final rounding
        assert result.tail_bound == mpf(2) ** -((10**30).bit_length() + GUARD_BITS)

    @pytest.mark.parametrize("digits", [1, 30, 200])
    def test_slowly_settling_ratios(self, digits):
        result = evaluate_expr("poch(1,n)/poch(1000,n)*(99/100)^n", digits)
        reference = lambda: mp.hyper([1, 1], [1000], mpf(99) / 100)
        assert_sound(result, reference, digits)

    def test_divergent_power(self):
        with pytest.raises(SeriesDivergenceError):
            evaluate_expr("2^n", 20)

    def test_ratio_one_then_decay(self):
        # (8)_n 2^-n / n!: ratios (n + 8) / (2n + 2) above 1, at 1 (n = 6),
        # then below; the sum is 2^8
        core, data = weighted(HypTerms(F(1), F(1, 2), ((1, F(8)),), ((1, F(1)),)))
        result = sum_terms([core], 25)
        assert_sound(result, lambda: mpf(256), 25)
        assert_sound(result, core_reference([(core, data)]), 25)

    def test_constant_terms_diverge(self):
        with pytest.raises(EvaluationError, match="not geometrically convergent"):
            sum_terms([HypTerms(F(1, 7), F(1), (), ())], 10)

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
        # geometric ratios near 1 (an id names 1.1 times the ratio); the
        # bound |t_N| / (1 - c) is exact, so only rounding separates them
        core, _ = geometric(ratio)
        if ratio > 1:
            with pytest.raises(SeriesDivergenceError):
                sum_terms([core], digits, max_terms=2000)
            return
        result = sum_terms([core], digits, max_terms=2000)
        assert_sound(result, lambda: 1 / (1 - num(ratio)), digits)

    @pytest.mark.parametrize(
        "prefactor",
        [
            F(-3, 7),
            F(1, 2**300),
            10**40,
            pytest.param(10**400, id="1e400"),
            pytest.param(at_target(0), id="bound-at-tol"),
            pytest.param(at_target(F(1, 2**42)), id="bound-above-tol"),
            pytest.param(at_target(-F(1, 2**42)), id="bound-below-tol"),
        ],
    )
    def test_prefactor_scales_the_target(self, prefactor):
        core, _ = geometric(F(-1, 5))
        result = sum_terms([core], 50, prefactor)
        scale = lambda: num(F(prefactor))
        assert_sound(result, lambda: scale() * 5 / 6, 50)
        # the exact partial sum, scaled and rounded: a few units of
        # |prefactor| 2^-W, each below 10^-50 2^-64
        exact = sum(t * w for t, w in core_terms(core, result.terms_used))
        with mp.workdps(80 + max(0, int(mp.log10(abs(result.value))))):
            assert abs(result.value - scale() * num(exact)) <= mpf(10) ** -50 / 2**62

    @pytest.mark.parametrize(
        "delta, terms", [(0, 41), (F(1, 2**42), 41), (-F(1, 2**42), 40)]
    )
    def test_stop_is_the_first_index_below_the_target(self, delta, terms):
        core, _ = geometric(F(-1, 5))
        assert sum_terms([core], 50, at_target(delta)).terms_used == terms

    def test_interval_prefactor_radius_is_covered(self):
        # the prefactor 1 +- h with h |S| = 10^-30 / 2 for S = 2: the bound
        # covers the value at either end of the interval
        core, _ = geometric(F(1, 2))
        h = F(1, 4 * 10**30)
        result = sum_terms([core], 30, (F(1), h))
        with mp.workdps(60):
            assert result.tail_bound < mpf(10) ** -30
            for end in (1 - h, 1 + h):
                assert abs(result.value - 2 * num(end)) <= result.tail_bound

    @pytest.mark.parametrize("k", [47, 50, 56])
    @pytest.mark.parametrize("sign, terms", [(-1, 10), (1, 11)])
    def test_stop_within_float_error_of_the_target(self, sign, terms, k):
        # the bound of geometric(-1/5) after 10 terms, |t_10| / (1 - 1/5), sits
        # 2^-k of itself off 10^-30: closer than the floats that pick the stop
        # can tell, so the integer proof steps to the first N that holds
        core, _ = geometric(F(-1, 5))
        prefactor = F(4, 5) * 5**10 / 10**30 * (1 + sign * F(1, 2**k))
        assert sum_terms([core], 30, prefactor).terms_used == terms

    @pytest.mark.parametrize(
        "cores, prefactor, reference",
        [
            ([geometric(1 - F(1, 2**40))], None, None),
            ([geometric(F(1, 2**3000))], None, 1 / (1 - F(1, 2**3000))),
            (
                [
                    # binom(2, n) (n^2 - 2n + 2) / 2 is 1, 1, 1 and then ends;
                    # the second core's terms drop by 2^-3000 a step
                    (
                        HypTerms(
                            F(1), F(-1), ((1, F(-2)),), ((1, F(1)),), ((2, -2, 1), (2,))
                        ),
                        None,
                    ),
                    geometric(F(1, 2**3000), F(1, 2**9000)),
                ],
                None,
                3 + F(1, 2**9000) / (1 - F(1, 2**3000)),
            ),
            ([geometric(F(-1, 3), F(1, 10**400))], None, F(3, 4) / 10**400),
            ([geometric(F(-1, 5), F(7, 10**401))], 10**400, F(7, 12)),
        ],
        ids=[
            "ratio-1-2^-40",
            "drop-2^-3000",
            "drop-after-ones",
            "below-1e-400",
            "below-1e-400-scaled",
        ],
    )
    def test_filter_edges(self, cores, prefactor, reference):
        # a ratio within 2^-40 of 1 runs out of terms; terms far below the
        # target leave the fixed-point T at 0 but not its bound E
        cores = [core for core, _ in cores]
        if reference is None:
            with pytest.raises(EvaluationError, match="not reached within 100 terms"):
                sum_terms(cores, 40, prefactor, max_terms=100)
            return
        result = sum_terms(cores, 40, prefactor, max_terms=100)
        assert_sound(result, lambda: num(reference), 40)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_streams(self, chunk):
        for seed in range(50 * chunk, 50 * chunk + 50):
            rng = random.Random(seed)
            cores = [random_core(rng) for _ in range(rng.choice([1, 1, 1, 2]))]
            digits = rng.choice([1, 5, 20, 40, 60])
            prefactor = rng.choice([None, F(-3, 7), 10**40, F(1, 10**40)])
            result = sum_terms([core for core, _ in cores], digits, prefactor)
            scale = F(1 if prefactor is None else prefactor)
            reference = core_reference(cores)
            assert_sound(result, lambda: num(scale) * reference(), digits)


def random_rational(rng, low, high, den=8):
    return F(rng.randint(low * den, high * den), rng.randint(1, den))


def positive(rng):
    return random_rational(rng, 0, 4) + F(1, 16)


def random_symbols(rng):
    return [(rng.choice([1, 1, 2]), positive(rng)) for _ in range(rng.randint(0, 2))]


def random_core(rng):
    """A core with a random ratio limit below 1, and sometimes a growth phase
    (large upper parameters), terms that end (an upper parameter a
    nonpositive integer), a negative ``c`` or a weight."""
    upper, lower = random_symbols(rng), random_symbols(rng)
    kind = rng.random()
    if kind < 0.2:
        upper.append((1, F(rng.randint(30, 120))))  # a growth phase
    elif kind < 0.35:
        upper.append((1, F(-rng.randint(0, 8))))  # the terms end
    excess = sum(p for p, _ in upper) - sum(p for p, _ in lower)
    if excess > 0:
        lower.append((excess, random_rational(rng, 1, 3)))
    limit = F(1)
    for p, _ in upper:
        limit *= p**p
    for p, _ in lower:
        limit /= p**p
    target = F(rng.randint(1, 90), 100)
    c = target / limit * rng.choice([1, -1])
    t0 = F(rng.choice([1, -1]) * rng.randint(1, 999), rng.randint(1, 999))
    core = HypTerms(t0, c, tuple(upper), tuple(lower))
    if rng.random() < 0.4:
        tops = [positive(rng) for _ in range(rng.randint(0, 2))]
        bottoms = [positive(rng) for _ in range(rng.randint(0, 2))]
        return weighted(core, random_rational(rng, 1, 5), tops, bottoms)
    return weighted(core)


# --------------------------------------------------------------------------
# The closed-form term sizes that place the stop
# --------------------------------------------------------------------------

# the printed summand of (1.1): about 119 500 terms for 300 000 digits
EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"

#: binom(5, n) 2^n: the terms end after n = 5
ENDING = HypTerms(F(1), F(-2), ((1, F(-5)),), ((1, F(1)),))
#: (1)_n / (-3)_n 2^-n: term 4 divides by zero
ZERO_LOWER = HypTerms(F(1), F(1, 2), ((1, F(1)),), ((1, F(-3)),))


def catalog_cores():
    """The cores of every catalog sum by name: derived, ``hyp`` grouped by
    m = 1, 2, 3, the products of each printed summand, and the cores of each
    non-rational Beta prefactor."""
    cores = {}
    for rid in DERIVED_IDS:
        ds = derived(rid)
        cores[rid] = [ds.core]
        u, v = (x - math.ceil(x) + 1 for x in (ds.a + 1, ds.b + 1))
        if u != 1 and v != 1:
            pair, power = _beta_cores(u, v)
            cores[f"{rid}-beta"] = list(pair)
            cores[f"{rid}-beta-power"] = [power] if power else []
    for rid, record in RECORDS.items():
        if record.kind == "grouping" or isinstance(record.lhs, dict) and "hyp" in record.lhs:
            doc = record.base if record.kind == "grouping" else record.lhs["hyp"]
            for m in (1, 2, 3):
                cores[f"{rid}-m{m}"] = [group(hyp_spec_from_dict(doc), m).core]
        for i, text in enumerate(summands(record.lhs)):
            cores[f"{rid}-expr{i}"] = list(parse_term_expr(text))
    return {name: group for name, group in cores.items() if group}


def log2_fraction(x):
    return math.log2(abs(x.numerator)) - math.log2(x.denominator)


class TestClosedForm:
    @pytest.mark.parametrize("name", sorted(catalog_cores()) + ["ending", "zero-lower"])
    def test_matches_exact_terms(self, name):
        # log2 |t(n)| from lgamma against the exact terms of the recurrence
        cores = {"ending": [ENDING], "zero-lower": [ZERO_LOWER]}.get(name)
        for core in cores or catalog_cores()[name]:
            walk = _Walk(core)
            count = 1001 if walk.end > 1000 else walk.end
            unweighted = dataclasses.replace(core, weight=((1,), (1,)))
            terms = list(itertools.islice(unweighted.terms(), count))
            assert len(terms) == count
            for n in (0, 1, 2, 3, 5, 7, 100, 1000):
                if n < count:
                    exact = log2_fraction(terms[n])
                    assert abs(walk.size(n) - exact) <= 1e-9 * max(1, abs(exact)), n

    def test_end_is_the_first_zero_or_undefined_term(self):
        assert _Walk(ENDING).end == 6
        assert _Walk(ZERO_LOWER).end == 4
        assert _Walk(dataclasses.replace(ZERO_LOWER, t0=F(0))).end == 0
        assert _Walk(dataclasses.replace(ZERO_LOWER, c=F(0))).end == 1
        assert math.isinf(_Walk(HypTerms(F(1), F(1, 2), ((1, F(1, 2)),), ((1, F(1)),))).end)

    @pytest.mark.parametrize("shift", [-4, 4])
    @pytest.mark.parametrize("name", sorted(catalog_cores()))
    def test_floats_only_place_the_start(self, name, shift, monkeypatch):
        # sizes off by 2^4 move the search's start; the proof still picks N
        cores = catalog_cores()[name]
        expected = [sum_terms(cores, digits) for digits in (10, 35, 100)]
        size = _Walk.size
        monkeypatch.setattr(_Walk, "size", lambda self, n: size(self, n) + shift)
        for digits, before in zip((10, 35, 100), expected):
            result = sum_terms(cores, digits)
            assert result.terms_used == before.terms_used
            assert result.value._mpf_ == before.value._mpf_
            assert result.tail_bound == before.tail_bound


class TestRefusal:
    @staticmethod
    def count_extends(monkeypatch):
        calls, extend = [], _Walk.extend

        def counted(self, stop):
            calls.append(stop)
            extend(self, stop)

        monkeypatch.setattr(_Walk, "extend", counted)
        return calls

    def test_runaway_request_is_refused_before_any_leaf(self, monkeypatch):
        calls = self.count_extends(monkeypatch)
        with pytest.raises(EvaluationError, match="^tail target not reached within 100000 terms$"):
            evaluate_expr(EQ_1_1, 300_000)
        assert calls == []

    @pytest.mark.parametrize("max_terms, built", [(88, False), (96, True)])
    def test_refusal_margin(self, max_terms, built, monkeypatch):
        # the tail of geometric(1/2) from term m is 2^(1 - m); the target
        # 10^-30 is about 2^-99.66: at m = 88 the floats put it 2^12.66 past,
        # so no leaf is built; at m = 96, 2^4.66 past, the proof decides
        calls = self.count_extends(monkeypatch)
        core, _ = geometric(F(1, 2))
        message = f"^tail target not reached within {max_terms} terms$"
        with pytest.raises(EvaluationError, match=message):
            sum_terms([core], 30, max_terms=max_terms)
        assert bool(calls) == built
        assert sum_terms([core], 30, max_terms=101).terms_used == 101


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
