"""Series engine: pochhammer identities, evaluation policies, rates, bounds."""

import itertools
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest, round_up

from betaseries.catalog import load_catalog
from betaseries.cores import SeriesDivergenceError
from betaseries.derive import DerivedSeries, SeedIntegral, solve_seed, weight_values
from betaseries.engine import (
    GUARD_BITS,
    EvaluationError,
    HypTerms,
    _quotient,
    _rounded,
    _split,
    _Walk,
    beta_prefactor,
    derived_terms,
    evaluate_derived,
    evaluate_expr,
    interned,
    predicted_rate,
    sum_terms,
    to_mpf,
)
from betaseries.expressions import parse_term_expr, pochhammer
from betaseries.hyper import HypSeriesSpec, measured_rate
from betaseries.polynomials import Polynomial, integer_coefficients
from betaseries.references import atan_of, beta_value, pi_machin, sqrt_of
from betaseries.wire import series_spec_from_dict
from scratch_terms import derived_term, partial_sums, pochhammer_ratio


def arcsine_series():
    seed = SeedIntegral(a=F(-1, 2), b=F(0), p=Polynomial([1, F(1, 3)]))
    return solve_seed(seed, 1, 2)


class TestPochhammer:
    def test_half_cubed(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_empty_product(self):
        for x in (F(0), F(-3, 7), F(22)):
            assert pochhammer(x, 0) == 1

    def test_negative_length(self):
        for x in (F(1), F(-5, 2), 0):
            with pytest.raises(ValueError):
                pochhammer(x, -1)

    @pytest.mark.parametrize("x", [F(0), F(1), F(-3), F(7, 6), F(-5, 2), F(-1, 3)])
    def test_matches_defining_product(self, x):
        # the integer kernel against x (x+1) ... (x+m-1), one Fraction at a time
        expected = F(1)
        for m in range(41):
            assert pochhammer(x, m) == expected
            expected *= x + m

    def test_multisection_identity(self):
        # (a)_{nk} == prod_{y<k} ((a+y)/k)_n * k^{kn}
        rng = random.Random(99)
        for _ in range(200):
            a = F(rng.randint(-40, 40), rng.randint(1, 12))
            k = rng.randint(1, 4)
            n = rng.randint(0, 6)
            lhs = pochhammer(a, n * k)
            rhs = F(k) ** (k * n)
            for y in range(k):
                rhs *= pochhammer((a + y) / k, n)
            assert lhs == rhs


def geometric(c, t0=F(1)):
    """The core of ``t0 c^n``."""
    return HypTerms(F(t0), F(c), (), ())


def polynomial_weight(*roots, scale=F(1)):
    """``scale * prod (n - root)`` as a core's integer weight."""
    top = Polynomial.constant(scale)
    for root in roots:
        top = top * Polynomial((-root, 1))
    return integer_coefficients(top.coeffs, (1,))


class TestSumTerms:
    def test_geometric(self):
        result = sum_terms([geometric(F(1, 10))], 30)
        with mp.workdps(60):  # the bound of a geometric tail is exact
            assert abs(result.value - mpf(10) / 9) <= result.tail_bound
        assert 0 < result.tail_bound < mpf(10) ** -30

    def test_divergence_detected(self):
        with pytest.raises(SeriesDivergenceError):
            sum_terms([geometric(2)], 10)

    def test_finite_stream_is_an_exact_sum(self):
        # (-1)_n (-1/2)^n / n!: the terms 1, 1/2, then exactly 0
        core = HypTerms(F(1), F(-1, 2), ((1, F(-1)),), ((1, F(1)),))
        result = sum_terms([core], 30)
        assert result.value == mpf(3) / 2
        assert result.terms_used == 2
        # the sum is exact in binary: the bound is the one unit of the final
        # rounding, 2^-W with W the bits of 10^30 plus the guard bits
        assert result.tail_bound == mpf(2) ** -((10**30).bit_length() + GUARD_BITS)

    def test_terms_that_end_stop_at_the_last_nonzero_term(self):
        # (-3)_n / (-5)_n: 1, 3/5, 3/10, 1/10, then 0; D(n) = n - 5 is 0 at
        # n = 5, past the end, and is never read
        result = evaluate_expr("poch(-3,n)/poch(-5,n)", 30)
        assert result.value == 2
        assert result.terms_used == 4

    def test_divergent_factorial_ratio(self):
        # the ratio (n + 1)^2 / (n + 61)^2 1000 tends to 1000
        with pytest.raises(SeriesDivergenceError):
            evaluate_expr("fact(n)^2/fact(n+60)^2*1000^n", 20)

    def test_trailing_zeros_end_an_exact_sum(self):
        # 5 binom(10, n) w(n) with w(n) = prod_{j=1..10} (n - j) / 10!: the
        # weight zeroes every term but the first until the terms end
        core = HypTerms(
            F(5),
            F(-1),
            ((1, F(-10)),),
            ((1, F(1)),),
            polynomial_weight(*range(1, 11), scale=F(1, 3628800)),
        )
        result = sum_terms([core], 20)
        assert result.value == 5
        assert result.terms_used == 11

    def test_empty_stream_sums_to_zero(self):
        result = sum_terms([], 20)
        assert result.value == 0 and result.terms_used == 0
        assert result.measured_rate is None
        assert sum_terms([geometric(F(1, 2), t0=0)], 20).terms_used == 0

    def test_interior_zero_terms(self):
        # (n - 1)(n - 3) / 16^n: zero weights mid-series must not stop the sum
        core = HypTerms(F(1), F(1, 16), (), (), polynomial_weight(1, 3))
        result = sum_terms([core], 25)
        x = F(1, 16)
        exact = x * (1 + x) / (1 - x) ** 3 - 4 * x / (1 - x) ** 2 + 3 / (1 - x)
        with mp.workdps(60):
            assert abs(result.value - to_mpf(exact)) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -25

    def test_prefactor_scales_value_and_tolerance(self):
        result = sum_terms([geometric(F(1, 10))], 25, prefactor=F(3))
        with mp.workdps(60):
            assert abs(result.value - mpf(10) / 3) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -25

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("poch(100,n)/fact(n)*(1/2)^n", F(2) ** 100),
            ("poch(20,n)/fact(n)*(1/2)^n", F(2) ** 20),
            ("poch(200,n)/fact(n)*(1/3)^n", F(3, 2) ** 200),
        ],
        ids=["2^100", "2^20", "(3/2)^200"],
    )
    def test_growth_phase_within_its_bound(self, expr, value):
        # sum (x)_n z^n / n! = (1 - z)^-x: the terms grow for a long stretch,
        # to about 10^34 for (200)_n / n! 3^-n, and the sum is exact until it
        # is rounded once
        result = evaluate_expr(expr, 30)
        with mp.workdps(120):
            assert abs(result.value - to_mpf(value)) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -30

    def test_weight_floor_keeps_same_sign_coefficients(self):
        # B(n) = n + 10^6 is at least n for every n >= 0: the floor of the
        # weight's denominator must not subtract the constant 10^6
        result = evaluate_expr("(1/2)^n/(n+1000000)", 30)
        assert result.terms_used <= 110
        with mp.workdps(60):
            value = mp.nsum(lambda n: mpf(2) ** -n / (n + 10**6), [0, mp.inf])
            assert abs(result.value - value) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -30

    def test_negative_upper_factor_needs_no_wait(self):
        # (-400001/2)_n / n! 10^-6n = (1 - 10^-6)^(400001/2): |n + a| <= n - 2 - a
        # for n >= 1 bounds the upper factor, so the stop does not wait for
        # n > 200000.5 (past the term limit)
        core = HypTerms(F(1), F(1, 10**6), ((1, F(-400001, 2)),), ((1, F(1)),))
        result = sum_terms([core], 30)
        assert result.terms_used < 30
        with mp.workdps(60):
            value = (1 - mpf(10) ** -6) ** (mpf(400001) / 2)
            assert abs(result.value - value) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -30

    def test_no_tail_bound_within_the_term_limit_fails_at_once(self):
        # (1)_n / (-200000.5)_n 2^-n, the hyp spec upper 1, lower -200000.5,
        # z 1/2: no bound is read before n0 = 200001, past the 100000-term
        # limit, so the sum is refused before its first term
        core = HypTerms(F(1), F(1, 2), ((1, F(1)),), ((1, F(-400001, 2)),))
        with pytest.raises(EvaluationError, match="before term 200001 of 100000"):
            sum_terms([core], 30)

    def test_terms_that_end_need_no_tail_bound(self):
        # (-5)_n / (-200000.5)_n 2^-n: (-5)_n ends the terms after n = 5,
        # long before n0 = 200001
        core = HypTerms(F(1), F(1, 2), ((1, F(-5)),), ((1, F(-400001, 2)),))
        result = sum_terms([core], 30)
        assert result.terms_used == 6
        with mp.workdps(60):
            assert abs(result.value - to_mpf(sum(core.terms()))) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -30

    def test_negative_lower_factor_waits_for_its_sign(self):
        # r(n) = (n + 1) / (2 (n - 81/2)): the terms fall to 4e-19 by n = 27,
        # then grow back to about 11 at n = 82, so no bound is read before
        # n - 81/2 > 0; the sum is 2F1(1, 1; -81/2; 1/2)
        result = evaluate_expr("poch(1,n)/poch(-81/2,n)*(1/2)^n", 10)
        assert result.terms_used > 41
        with mp.workdps(40):
            value = mp.hyp2f1(1, 1, mpf(-81) / 2, mpf(1) / 2)
            assert abs(result.value - value) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -10

    @pytest.mark.parametrize(
        "core, n",
        [
            # (-3)_n below: D(3) = 0, so term 4 divides by zero
            (HypTerms(F(1), F(1, 2), ((1, F(1)),), ((1, F(-3)),)), 4),
            # weight 1 / (n - 3)
            (HypTerms(F(1), F(1, 2), (), (), ((1,), (-3, 1))), 3),
        ],
        ids=["ratio", "weight"],
    )
    def test_zero_denominator_names_the_term(self, core, n):
        with pytest.raises(ZeroDivisionError, match=f"^division by zero at n={n}$"):
            sum_terms([core], 20)

    @pytest.mark.parametrize(
        "text",
        ["(1/2)^n/poch(-7,n) + (1/3)^n/(n-5)", "(1/3)^n/(n-5) + (1/2)^n/poch(-7,n)"],
        ids=["symbol-first", "weight-first"],
    )
    def test_first_undefined_term_of_any_core_is_named(self, text):
        # 1/(n-5) leaves term 5 undefined, 1/(-7)_n term 8: either order names 5
        with pytest.raises(ZeroDivisionError, match="^division by zero at n=5$"):
            evaluate_expr(text, 20)


class TestEvaluateDerived:
    def test_recurrence_matches_scratch(self):
        # exact equality between the ratio recurrence and pochhammer products
        series = [
            arcsine_series(),
            solve_seed(
                SeedIntegral(a=F(-2, 3), b=F(1, 3), p=Polynomial([1, 1])), 1, 1
            ),
            DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(1),)),
        ]
        for ds in series:
            gen = derived_terms(ds)
            for n in range(21):
                assert next(gen) == derived_term(ds, n)

    @pytest.mark.parametrize(
        "k, s, p",
        [
            (0, 3, [3, 1]),
            (0, 1, [1, F(1, 3)]),
            (3, 0, [2, -1]),
            (1, 0, [3, 1]),
            (2, 4, [3, 1]),
        ],
        ids=["k0", "k0-s1", "s0", "s0-k1", "k2-s4"],
    )
    def test_recurrence_matches_scratch_for_any_kernel(self, k, s, p):
        # one symbol per (a+1)_{kn}, (b+1)_{sn}, (a+b+2)_{(k+s)n}, even of length 0
        ds = solve_seed(SeedIntegral(a=F(-1, 2), b=F(1, 3), p=Polynomial(p)), k, s)
        core = ds.core
        assert len(core.num) + len(core.den) == 3
        gen = derived_terms(ds)
        for n in range(30):
            assert next(gen) == derived_term(ds, n)

    def test_equal_series_share_one_core(self):
        # two series read from one spec dict are two objects with one core,
        # interned by value, so its forms are built once
        doc = next(r for r in load_catalog() if r.id == "eq-2.11-derived").series
        first, second = series_spec_from_dict(doc), series_spec_from_dict(doc)
        assert first is not second and first == second
        core = first.core
        assert second.core is core
        copy = HypTerms(core.t0, core.c, core.num, core.den, core.weight)
        assert copy is not core and interned(copy) is core

    @pytest.mark.parametrize("m", [2, 3])
    def test_grouped_weighted_core_sums_consecutive_terms(self, m):
        # grouping keeps the weight: term n is w-weighted terms mn .. mn+m-1
        core = arcsine_series().core
        base = core.terms()
        grouped = core.grouped(m).terms()
        for _ in range(10):
            assert next(grouped) == sum(next(base) for _ in range(m))

    def test_weight_factor_separated_from_recurrence(self):
        # the weightless part advances by the ratio recurrence regardless of
        # the weight values, so a vanishing weight cannot enter a denominator
        ds = solve_seed(
            SeedIntegral(a=F(-1, 2), b=F(0), p=Polynomial([1, F(1, 3)])), 1, 2
        )
        from betaseries.derive import weight_values
        from betaseries.expressions import pochhammer as poch

        gen = derived_terms(ds)
        for n in range(15):
            t_weightless = (
                poch(ds.a + 1, ds.k * n)
                * poch(ds.b + 1, ds.s * n)
                / (poch(ds.a + ds.b + 2, (ds.k + ds.s) * n) * ds.z**n)
            )
            assert next(gen) == t_weightless * weight_values(ds, n)

    def test_central_binomial_value(self):
        # a=b=0, k=s=1, Q=1, z=4: value = 4 atan(1/sqrt(15)) / sqrt(15)
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(1),))
        result = evaluate_derived(ds, 30)
        with mp.workdps(45):
            s15 = sqrt_of(mpf(15))
            expected = 4 * atan_of(1 / s15) / s15
            assert abs(result.value - expected) < mpf(10) ** -30

    def test_huge_z_two_terms(self):
        z = F(10) ** 50
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=z, qcoeffs=(F(1),))
        result = evaluate_derived(ds, 60)
        assert result.terms_used <= 3
        with mp.workdps(80):
            first = 1 / to_mpf(z)
            assert abs(result.value - first) <= first * mpf(10) ** -49

    @pytest.mark.parametrize("digits", [20, 50])
    def test_prefactor_error_is_within_the_bound(self, digits):
        # a = -1 + 1/(3 10^30) makes B(a+1, b+1) about 3 10^30: the Beta is
        # taken at bits beyond its own size, and the bound covers its error
        ds = DerivedSeries(
            a=F(-1) + F(1, 3 * 10**30), b=F(2, 3), k=1, s=1, z=F(4), qcoeffs=(F(1),)
        )
        result = evaluate_derived(ds, digits)
        with mp.workdps(digits + 80):
            total = sum(itertools.islice(derived_terms(ds), 4 * digits + 60))
            pref = mp.beta(mpf(1) / (3 * 10**30), mpf(5) / 3) / 4
            assert abs(result.value - pref * to_mpf(total)) <= result.tail_bound
        assert result.tail_bound < mpf(10) ** -digits

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            evaluate_derived(arcsine_series(), 0)


def _catalog_betas():
    """``(a+1, b+1, z)`` of every catalog derived series."""
    cases = {}
    for r in load_catalog():
        if r.kind == "duality":
            ds = series_spec_from_dict(r.series)
            cases.setdefault((ds.a + 1, ds.b + 1, ds.z), r.id)
    return [pytest.param(*key, id=rid) for key, rid in cases.items()]


def _assert_beta_within(prefactor, p, q, scale, digits):
    """The prefactor's radius covers ``scale B(p, q)`` by ``mp.beta`` and by
    ``references.beta_value``, each taken 40 digits past it."""
    mid, radius = prefactor if isinstance(prefactor, tuple) else (prefactor, F(0))
    assert radius < F(3, 10**digits)
    with mp.workdps(digits + 40):
        for beta in (mp.beta(to_mpf(p), to_mpf(q)), beta_value(p, q, digits + 40)):
            err = abs(to_mpf(mid) - to_mpf(scale) * beta)
            assert err <= to_mpf(radius) + mpf(10) ** -(digits + 35)


class TestBetaPrefactor:
    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("p, q, z", _catalog_betas())
    def test_catalog_prefactors(self, p, q, z, digits):
        _assert_beta_within(beta_prefactor(p, q, 1 / z, digits), p, q, 1 / z, digits)

    def test_two_thirds_half_at_1000_digits(self):
        p, q = F(2, 3), F(1, 2)
        _assert_beta_within(beta_prefactor(p, q, F(1), 1000), p, q, F(1), 1000)

    @pytest.mark.parametrize(
        "p, q, value",
        [(F(1, 2), F(1), F(2)), (F(1), F(1), F(1)), (F(3, 2), F(2), F(4, 15))],
        ids=["half-one", "one-one", "j-k-reduced"],
    )
    def test_rational_betas_are_exact(self, p, q, value):
        # B(1, v) = 1 / v after the reduction: no series, no radius
        for scale in (F(1), F(-1, 48)):
            prefactor = beta_prefactor(p, q, scale, 30)
            assert isinstance(prefactor, F) and prefactor == scale * value


class TestTruncatedQuotient:
    """``_quotient`` floors ``a / b`` after cutting both to the bits it keeps;
    it is within one unit of the full floor and within its units of ``a / b``."""

    @staticmethod
    def assert_close(a, b):
        quotient, units = _quotient(a, b)
        assert abs(quotient - a // b) <= 1
        assert abs(F(a, b) - quotient) < max(units, F(1, 2**100))
        return units

    def test_pi_split_at_30000_digits(self):
        # the final division of the (1,2) pi series: V Q has far more bits
        # than the quotient
        ds = series_spec_from_dict(
            next(r for r in load_catalog() if r.id == "eq-1.1-derived").series
        )
        core = ds.core
        walk = _Walk(core)
        walk.extend(11_900)
        _, q, v, t = _split(walk.leaves)
        bits = (10**30_000).bit_length() + GUARD_BITS
        a, b = core.t0.numerator * t << bits, core.t0.denominator * v * q
        assert b.bit_length() > 2 * bits
        assert self.assert_close(a, b) >= 1

    def test_quotient_far_above_two_to_the_width(self):
        # |S| >> 2^W: the divisor keeps 128 bits past the quotient, not past W
        rng = random.Random(3)
        for _ in range(200):
            b = rng.getrandbits(rng.randrange(1, 4000)) + 1
            a = rng.getrandbits(max(b.bit_length() + rng.randrange(-300, 3000), 0))
            a, b = a * rng.choice((-1, 1)), b * rng.choice((-1, 1))
            self.assert_close(a, b)
            self.assert_close(a << 1000, b)

    def test_exact_when_nothing_is_cut(self):
        assert _quotient(7 << 300, 7) == (1 << 300, 0)
        assert _quotient(-7, 2) == (-4, 1)


class TestRounded:
    @pytest.mark.parametrize("rnd", [round_nearest, round_up])
    def test_matches_from_rational(self, rnd):
        # the power of two in den is a shift of the exponent, taken apart
        rng = random.Random(7)
        for k in [0, 1, 7, 8, 9, 64, 1000, 40_000] + rng.sample(range(40_001), 12):
            for _ in range(4):
                num = rng.getrandbits(rng.randrange(1, 3000)) * rng.choice((-1, 1))
                den = (rng.getrandbits(rng.randrange(0, 500)) | 1) << k
                prec = rng.randrange(2, 2000)
                ours = _rounded(num, den, prec, rnd)._mpf_
                assert ours == from_rational(num, den, prec, rnd)

    def test_zero(self):
        assert _rounded(0, 3 << 100, 53)._mpf_ == from_rational(0, 3 << 100, 53)


def _derived_series():
    """Every catalog derived series, and kernels with k = 0 or s = 0."""
    cases = [
        pytest.param(series_spec_from_dict(r.series), id=r.id)
        for r in load_catalog()
        if r.kind == "duality"
    ]
    kernels = [(0, 3, [3, 1]), (0, 1, [1, F(1, 3)]), (3, 0, [2, -1]), (1, 0, [3, 1])]
    for k, s, p in kernels:
        seed = SeedIntegral(a=F(-1, 2), b=F(1, 3), p=Polynomial(p))
        cases.append(pytest.param(solve_seed(seed, k, s), id=f"k{k}-s{s}-{p}"))
    return cases


DERIVED_SERIES = _derived_series()


class TestIntegerForms:
    """The integer polynomials of a core against the formulas they replace."""

    def test_edge_cases_are_covered(self):
        series = [case.values[0] for case in DERIVED_SERIES]
        assert any(len(ds.qcoeffs) == 1 for ds in series)  # deg Q = 0
        assert any(ds.k == 0 for ds in series) and any(ds.s == 0 for ds in series)
        assert any(ds.z < 0 for ds in series)
        assert {3, 4, 5} <= {ds.a.denominator for ds in series}
        assert {3, 2, 5} <= {ds.b.denominator for ds in series}

    @pytest.mark.parametrize("ds", DERIVED_SERIES)
    def test_weight_values_match_definition(self, ds):
        for n in range(100):
            top = ds.a + 1 + ds.k * n
            bottom = ds.a + ds.b + 2 + (ds.k + ds.s) * n
            expected = sum(
                coeff * pochhammer(top, j) / pochhammer(bottom, j)
                for j, coeff in enumerate(ds.qcoeffs)
            )
            assert weight_values(ds, n) == expected
        with pytest.raises(ValueError):
            weight_values(ds, -1)

    @pytest.mark.parametrize("ds", DERIVED_SERIES)
    def test_derived_ratio_matches_pochhammer_pairs(self, ds):
        core = ds.core
        for n in range(60):
            assert core.ratio(n) == pochhammer_ratio(core, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_vanishing_weight(self, m):
        # w(3) = 0 zeroes term 3 only; the recurrence never divides by it
        core = HypTerms(
            F(2, 3), F(-1, 2), ((1, F(1, 2)),), ((1, F(5, 3)),), ((-3, 1), (1, 1))
        )
        unweighted = HypTerms(core.t0, core.c, core.num, core.den)
        base = [t * F(n - 3, n + 1) for n, t in zip(range(12 * m), unweighted.terms())]
        assert base[3] == 0 and all(base[n] for n in range(12 * m) if n != 3)
        grouped = core.grouped(m).terms()
        for n in range(12):
            assert next(grouped) == sum(base[m * n : m * n + m])

    @pytest.mark.parametrize(
        "num, den, c",
        [
            (((1, F(1)),), (), F(1, 100)),  # ratio ~ n/100
            (((2, F(1)),), ((1, F(1)), (1, F(1))), F(1, 3)),  # L = 4/3
            (((1, F(1, 2)),), ((1, F(3, 2)),), F(-5, 4)),
        ],
    )
    def test_divergent_ratio_raises_before_the_first_term(self, num, den, c):
        terms = HypTerms(F(1), c, num, den).terms()
        with pytest.raises(SeriesDivergenceError):
            next(terms)

    @pytest.mark.parametrize("c", [F(1), F(-1)])
    def test_unit_ratio_limit_is_not_geometric(self, c):
        # 1/(n+1)^2 and its alternating form: |L| = 1 exactly
        core = HypTerms(F(1), c, ((1, F(1)), (1, F(1))), ((1, F(2)), (1, F(2))))
        with pytest.raises(EvaluationError, match="not geometrically convergent"):
            next(core.terms())
        assert not issubclass(EvaluationError, SeriesDivergenceError)

    def test_terminating_core_ends_after_its_last_nonzero_term(self):
        # (-5)_n (-2)^n / n! = binom(5, n) 2^n: |L| = 2, but the terms end
        core = HypTerms(F(1), F(-2), ((1, F(-5)),), ((1, F(1)),))
        assert list(core.terms()) == [1, 10, 40, 80, 80, 32]
        assert list(core.grouped(4).terms()) == [131, 112]

    @pytest.mark.parametrize("m, yielded", [(1, 4), (2, 2), (3, 1)])
    def test_zero_denominator_factor_raises(self, m, yielded):
        # (q')_{n} with q' = -3 has the factor q' + n = 0 at n = 3
        core = HypTerms(F(1), F(1, 2), ((1, F(1)),), ((1, F(-3)),))
        with pytest.raises(ZeroDivisionError):
            pochhammer_ratio(core, 3)
        with pytest.raises(ZeroDivisionError, match="at n=4$"):
            core.ratio(3)
        gen = core.terms() if m == 1 else core.grouped(m).terms()
        assert len(list(itertools.islice(gen, yielded))) == yielded
        with pytest.raises(ZeroDivisionError):
            next(gen)


class TestEvaluateExpr:
    def test_pi_at_100_digits(self):
        result = evaluate_expr(
            "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)", 100
        )
        with mp.workdps(130):
            value = result.value * sqrt_of(mpf(3)) / 60
            assert abs(value - pi_machin(120)) < mpf(10) ** -100
        assert result.terms_used <= 45

    def test_constant_expression(self):
        result = evaluate_expr("5*0^n", 20)
        assert result.value == 5
        assert result.tail_bound > 0

    def test_divergent_expression(self):
        with pytest.raises(SeriesDivergenceError):
            evaluate_expr("binom(8*n,4*n)/9^n", 10)
        # |L| = 1000: once a value after two terms
        with pytest.raises(SeriesDivergenceError):
            evaluate_expr("fact(n)^2/fact(n+60)^2*1000^n", 20)

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("binom(n,5)*(1/2)^n", 2),  # zero for n < 5
            ("(n-3)*(n-4)*(n-5)*(n-6)*(n-7)*(1/2)^n", -2880),  # zero for 3..7
            ("binom(5,n)*2^n", 243),  # a finite sum
            ("(1/2)^n + (1/3)^n - (1/3)^n*3", -1),  # two cores
            ("binom(3,n) + (1/2)^n", 10),  # a finite and an infinite core
            ("n - n", 0),  # the empty sum
        ],
    )
    def test_sums_of_cores(self, expr, value):
        result = evaluate_expr(expr, 25)
        with mp.workdps(40):
            assert abs(result.value - value) <= result.tail_bound

    def test_accepts_ast(self):
        from betaseries.expressions import parse_term_expr

        ast = parse_term_expr("1/(binom(2*n,n)*(2*n+1))")
        a = evaluate_expr(ast, 20)
        b = evaluate_expr("1/(binom(2*n,n)*(2*n+1))", 20)
        assert a.value == b.value


class TestOneCore:
    """Every front end builds the one core type, interned by value."""

    def test_two_front_ends_build_one_core(self):
        # a printed summand and the hypergeometric spec of one series
        (core,) = parse_term_expr("poch(1/2,n)/poch(3/2,n)*(1/2)^n")
        assert core is HypSeriesSpec(("1/2",), ("3/2",), "1/2").core

    def test_a_second_derived_sum_interns_nothing(self):
        ds = series_spec_from_dict(
            next(r for r in load_catalog() if r.id == "eq-2.11-derived").series
        )
        first = evaluate_derived(ds, 100)
        misses = interned.cache_info().misses
        assert evaluate_derived(ds, 100) == first
        assert interned.cache_info().misses == misses
        assert vars(ds)["core"] is ds.core  # kept on the series

    def test_summing_a_parsed_summand_builds_no_core(self, monkeypatch):
        expr = parse_term_expr("poch(1/2,n)/fact(n)*(1/4)^n+(-1/5)^n/(n+1)")
        built, init = [], HypTerms.__init__
        monkeypatch.setattr(HypTerms, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        assert evaluate_expr(expr, 30) == evaluate_expr(expr, 30)
        assert built == []


class TestRates:
    def test_predicted_arcsine(self):
        assert predicted_rate(arcsine_series()) == pytest.approx(2.5105, abs=1e-3)

    def test_predicted_five_digits(self):
        ds = solve_seed(
            SeedIntegral(a=F(-1, 2), b=F(0), p=Polynomial([3, 1])), 2, 4
        )
        assert predicted_rate(ds) == pytest.approx(5.0211, abs=1e-3)

    def test_predicted_plain_geometric(self):
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=0, z=F(10), qcoeffs=(F(1),))
        assert predicted_rate(ds) == pytest.approx(1.0, abs=1e-12)

    def test_measured_geometric(self):
        with mp.workdps(40):
            partials = []
            total = mpf(0)
            for n in range(25):
                total += mpf(10) ** (-n)
                partials.append(total)
            rate = measured_rate(partials, mpf(10) / 9)
        assert rate == pytest.approx(1.0, abs=0.01)

    def test_measured_requires_enough_points(self):
        with pytest.raises(ValueError):
            measured_rate([mpf(1)] * 5, mpf(2))

    def test_measured_clamps_exact_points(self):
        with mp.workdps(40):
            ref = mpf(10) / 9
            partials = []
            total = mpf(0)
            for n in range(20):
                total += mpf(10) ** (-n)
                partials.append(total)
            partials[12] = ref  # exact hit must be clamped out, not crash
            rate = measured_rate(partials, ref)
        assert rate == pytest.approx(1.0, abs=0.05)

    def test_predicted_vs_measured_for_catalog_series(self):
        # past the preasymptotic window the fitted slope matches log10(|z|/M)
        cases = [
            (arcsine_series(), 80),
            (
                solve_seed(
                    SeedIntegral(a=F(-1, 3), b=F(-1, 2), p=Polynomial([1, F(1, 8)])),
                    1,
                    1,
                ),
                75,
            ),
            (DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(1),)), 25),
        ]
        for ds, digits in cases:
            result = evaluate_derived(ds, digits)
            reference = evaluate_derived(ds, digits + 20)
            # the exact partial sums of the terms used, times the prefactor
            terms = [derived_term(ds, n) for n in range(result.terms_used)]
            with mp.workdps(digits + 30):
                pref = mp.beta(to_mpf(ds.a + 1), to_mpf(ds.b + 1)) / to_mpf(ds.z)
                partials = [pref * to_mpf(s) for s in partial_sums(terms)]
                fitted = measured_rate(partials[10:], reference.value)
            assert fitted == pytest.approx(predicted_rate(ds), abs=0.05)


class TestTailSoundness:
    @pytest.mark.parametrize(
        "expr",
        [
            "1/(binom(2*n,n)*(2*n+1))",
            "(5717/(8*n+1)-413/(8*n+3)-45/(8*n+5)+5/(8*n+7))/(9^n*binom(8*n,4*n))",
            "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)",
        ],
    )
    def test_reevaluation_within_tail_bound(self, expr):
        base = evaluate_expr(expr, 30)
        sharper = evaluate_expr(expr, 50)
        assert abs(base.value - sharper.value) <= base.tail_bound

    def test_derived_reevaluation(self):
        ds = arcsine_series()
        base = evaluate_derived(ds, 30)
        sharper = evaluate_derived(ds, 50)
        assert abs(base.value - sharper.value) <= base.tail_bound
