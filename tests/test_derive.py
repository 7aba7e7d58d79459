"""Seed solving: reproductions, error paths, parameterized solve, weights."""

from fractions import Fraction as F

import pytest

from betaseries.derive import (
    DegenerateSeriesError,
    DerivedSeries,
    DivergentSeriesError,
    NotDivisibleError,
    SeedIntegral,
    convergence_bound,
    solve_seed,
    solve_seed_param,
    weight_values,
)
from betaseries.engine import derived_terms
from betaseries.expressions import evaluate, parse_term_expr
from betaseries.polynomials import ParamPolynomial, Polynomial, expand_kernel

P = Polynomial


def make_seed(coeffs, a=0, b=0):
    return SeedIntegral(a=F(a), b=F(b), p=P(coeffs))


PXW = ParamPolynomial([P([0, 1]), P([-1]), P([1])])  # x^2 - x + w


class TestConvergenceBound:
    def test_values(self):
        assert convergence_bound(1, 2) == F(4, 27)
        assert convergence_bound(2, 4) == F(4 * 256, 6**6)
        assert convergence_bound(1, 1) == F(1, 4)
        assert convergence_bound(1, 0) == 1
        assert convergence_bound(0, 3) == 1


class TestSolveSeed:
    def test_arcsine_seed(self):
        ds = solve_seed(make_seed([1, F(1, 3)], a=F(-1, 2)), 1, 2)
        assert ds.z == -48
        assert ds.qcoeffs == (F(-48), F(15), F(-3))

    def test_kummer_seed(self):
        ds = solve_seed(make_seed([1, 1], a=F(-2, 3), b=F(1, 3)), 1, 1)
        assert ds.z == -2
        assert ds.qcoeffs == (F(-2), F(1))

    def test_gamma_third_seed(self):
        ds = solve_seed(make_seed([1, F(1, 8)], a=F(-1, 3), b=F(-1, 2)), 1, 1)
        assert ds.z == -72
        assert ds.qcoeffs == (F(-72), F(8))

    def test_five_digit_seed(self):
        ds = solve_seed(make_seed([3, 1], a=F(-1, 2)), 2, 4)
        assert ds.z == 2304
        assert ds.qcoeffs[0] == 768
        assert ds.q == P([768, -256, 85, -27, 7, -1])

    def test_product_identity_holds(self):
        for coeffs, k, s in ([1, F(1, 3)], 1, 2), ([1, 1], 1, 1), ([3, 1], 2, 4):
            ds = solve_seed(make_seed(coeffs, a=F(-1, 2)), k, s)
            target = P.constant(ds.z) + expand_kernel(k, s)
            assert ds.seed_p * ds.q == target

    def test_not_divisible(self):
        # degree-2 seed with k=1, s=1 whose remainder has a nonzero x-coefficient
        with pytest.raises(NotDivisibleError):
            solve_seed(make_seed([1, 0, 1]), 1, 1)

    def test_divergent(self):
        # P = 10 - x: z = 10 * (k=1,s=0 kernel) remainder ... gives |z| <= 1
        with pytest.raises(DivergentSeriesError):
            solve_seed(make_seed([F(1, 2), 1]), 1, 0)

    def test_degenerate_zero_z(self):
        # z(w) = -w (1 + w) for P = x + w and k = s = 1: at w = -1 the kernel
        # -x (1-x) is divisible by P = x - 1, so z = 0
        pds = solve_seed_param(ParamPolynomial([P([0, 1]), P([1])]), 1, 1)
        assert pds.z_w == P([0, -1, -1])
        with pytest.raises(DegenerateSeriesError, match="^z = 0"):
            pds.specialize(-1)

    def test_zero_z_seed_is_refused_for_its_root(self):
        # z = 0 needs P to divide x^k (1-x)^s, so P has a root at 0 or 1:
        # solve_seed refuses the seed before it could reach z = 0
        message = r"^seed denominator has a root on \[0, 1\]$"
        with pytest.raises(ValueError, match=message) as raised:
            solve_seed(make_seed([0, 1]), 1, 1)
        assert type(raised.value) is ValueError

    def test_constant_denominator_rejected(self):
        with pytest.raises(NotDivisibleError):
            solve_seed(make_seed([2]), 1, 1)

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            solve_seed(make_seed([1, 1]), 0, 0)


class TestSeedIntegralValidation:
    def test_requires_integrable_exponents(self):
        with pytest.raises(ValueError):
            SeedIntegral(a=F(-1), b=F(0), p=P([1, 1]))
        with pytest.raises(ValueError):
            SeedIntegral(a=F(0), b=F(-3, 2), p=P([1, 1]))

    def test_rejects_root_in_interval(self):
        with pytest.raises(ValueError, match="root"):
            SeedIntegral(a=F(0), b=F(0), p=P([-1, 2]))

    def test_rejects_tangent_root(self):
        with pytest.raises(ValueError, match="root"):
            SeedIntegral(a=F(0), b=F(0), p=(P.x() - F(1, 3)) ** 2)


class TestSolveSeedParam:
    def test_cubic(self):
        pds = solve_seed_param(PXW, 3, 3)
        assert pds.z_w == P([0, 0, 0, 1])
        assert pds.q_w == ParamPolynomial(
            [P([0, 0, 1]), P([0, 1]), P([1, -1]), P([-2]), P([1])]
        )

    def test_quintic(self):
        pds = solve_seed_param(PXW, 5, 5)
        assert pds.z_w == P([0, 0, 0, 0, 0, 1])
        assert pds.q_w.coefficient(8) == P.one()
        assert pds.q_w.coefficient(4) == P([1, -3, 1])
        assert pds.q_w.coefficient(0) == P([0, 0, 0, 0, 1])

    def test_trivial_kernel_equals_divisor(self):
        pds = solve_seed_param(PXW, 1, 1)
        assert pds.z_w == P([0, 1])  # z = w
        assert pds.q_w == ParamPolynomial([P.one()])

    def test_failure_diagnostic(self):
        bad = ParamPolynomial([P([0, 1]), P([0]), P([0]), P([1])])  # x^3 + w
        with pytest.raises(NotDivisibleError):
            solve_seed_param(bad, 1, 1)

    def test_specialization_consistency(self):
        pds = solve_seed_param(PXW, 3, 3)
        for w0 in (F(1), F(2), F(1, 2), F(-2), F(7, 3)):
            direct = solve_seed(make_seed([w0, -1, 1]), 3, 3)
            special = pds.specialize(w0)
            assert special.z == direct.z == w0**3
            assert special.qcoeffs == direct.qcoeffs
            assert special.seed_p == direct.seed_p

    def test_specialization_at_inadmissible_w(self):
        pds = solve_seed_param(PXW, 1, 1)
        with pytest.raises(ValueError):
            pds.specialize(F(1, 8))  # P(x, 1/8) has roots inside [0, 1]


class TestWeightValues:
    def test_arcsine_weight_at_zero(self):
        ds = solve_seed(make_seed([1, F(1, 3)], a=F(-1, 2)), 1, 2)
        # direct substitution: a0 + a1 (a+1)/(a+b+2) + a2 (a+1)(a+2)/((a+b+2)(a+b+3))
        expected = (
            F(-48)
            + 15 * F(1, 2) / F(3, 2)
            - 3 * (F(1, 2) * F(3, 2)) / (F(3, 2) * F(5, 2))
        )
        assert weight_values(ds, 0) == expected == F(-218, 5)

    def test_constant_q(self):
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(7),))
        for n in range(10):
            assert weight_values(ds, n) == 7

    def test_gamma_series_weight_at_one(self):
        ds = solve_seed(make_seed([1, F(1, 8)], a=F(-1, 3), b=F(-1, 2)), 1, 1)
        assert weight_values(ds, 1) == F(-72) + 8 * F(5, 3) / F(19, 6)

    def test_negative_index(self):
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(1),))
        with pytest.raises(ValueError):
            weight_values(ds, -1)


class TestPrintedFormCrossChecks:
    """The printed summands are an exact rational multiple of the derived terms."""

    def test_eq_1_1_terms(self):
        ds = solve_seed(make_seed([1, F(1, 3)], a=F(-1, 2)), 1, 2)
        printed = parse_term_expr(
            "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"
        )
        terms = derived_terms(ds)
        scale = F(-5, 2)  # printed(0) / derived(0) = 109 / (-218/5)
        for n in range(21):
            assert evaluate(printed, n) == scale * next(terms)

    def test_eq_1_2_terms(self):
        ds = solve_seed(make_seed([1, F(1, 8)], a=F(-1, 3), b=F(-1, 2)), 1, 1)
        printed = parse_term_expr(
            "poch(2/3,n)*poch(1/2,n)*(102*n+59)/(poch(13/12,n)*poch(19/12,n)*(-288)^n)"
        )
        terms = derived_terms(ds)
        scale = F(-7, 8)
        for n in range(21):
            assert evaluate(printed, n) == scale * next(terms)


class TestDerivedSeriesValidation:
    def test_product_identity_enforced(self):
        with pytest.raises(ValueError):
            DerivedSeries(
                a=F(0),
                b=F(0),
                k=1,
                s=1,
                z=F(4),
                qcoeffs=(F(1),),
                seed_p=P([1, 1]),  # wrong P
            )

    def test_divergent_rejected(self):
        with pytest.raises(DivergentSeriesError):
            DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(1, 8), qcoeffs=(F(1),))

    def test_zero_z_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(0), qcoeffs=(F(1),))

    def test_solve_seed_raises_the_series_message(self):
        # P = 1/2 + x: P * (-1) = -1/2 - x, and |z| = 1/2 <= M(1, 0) = 1
        with pytest.raises(DivergentSeriesError) as solved:
            solve_seed(make_seed([F(1, 2), 1]), 1, 0)
        with pytest.raises(DivergentSeriesError) as direct:
            DerivedSeries(a=F(0), b=F(0), k=1, s=0, z=F(-1, 2), qcoeffs=(F(-1),))
        assert str(solved.value) == str(direct.value)
        assert str(direct.value) == (
            "derived series diverges: |z| = 1/2 <= 1 = sup x^k(1-x)^s"
        )

    def test_specialize_raises_the_series_message(self):
        # z(w) = w for P = x^2 - x + w and k = s = 1
        with pytest.raises(DegenerateSeriesError) as special:
            solve_seed_param(PXW, 1, 1).specialize(0)
        with pytest.raises(DegenerateSeriesError) as direct:
            DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(0), qcoeffs=(F(1),))
        assert str(special.value) == str(direct.value)
        assert str(direct.value) == (
            "z = 0: kernel already divisible by P, prefactor undefined"
        )

    def test_seed_p_derived_from_q(self):
        ds = DerivedSeries(a=F(0), b=F(0), k=1, s=1, z=F(4), qcoeffs=(F(1),))
        assert ds.seed_p == P([4, -1, 1])  # 4 - x(1-x)
