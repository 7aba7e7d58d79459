"""Exact polynomial arithmetic: division, kernels, parameterized division."""

import random
from fractions import Fraction as F

import pytest

import oracles
from betaseries import catalog, engine, hyper
from betaseries.expressions import parse_term_expr
from betaseries.polynomials import (
    ParamPolynomial,
    Polynomial,
    coeff_product,
    coeff_sum,
    consecutive,
    count_distinct_roots_on_unit_interval,
    exact_quotient,
    expand_kernel,
    has_root_on_unit_interval,
    horner,
    int_gcd,
    integer_coefficients,
    leaf_forms,
    poly_divmod,
    primitive,
    pseudo_remainder,
    rational,
)

P = Polynomial
X = Polynomial.x()


def rand_rational(rng, span=20):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return F(num, den)


def rand_poly(rng, max_deg=6, allow_zero=True):
    deg = rng.randint(0, max_deg)
    coeffs = [rand_rational(rng) for _ in range(deg + 1)]
    p = Polynomial(coeffs)
    if p.is_zero and not allow_zero:
        return Polynomial([1])
    return p


class TestPolynomialBasics:
    def test_trailing_zeros_stripped(self):
        assert P([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert P([0, 0]).is_zero
        assert P([]).degree == -1

    def test_leading_of_zero_raises(self):
        with pytest.raises(ValueError):
            P([]).leading

    def test_exact_evaluation(self):
        p = P([F(1, 3), -2, 1])
        assert p(F(1, 2)) == F(1, 3) - 1 + F(1, 4)

    def test_product_evaluates_exactly(self):
        rng = random.Random(7)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            x0 = rand_rational(rng)
            assert (p * q)(x0) == p(x0) * q(x0)

    def test_rational_coercion(self):
        assert rational("3/4") == F(3, 4)
        assert rational(-5) == F(-5)
        with pytest.raises(TypeError):
            rational(1.5)

    def test_str(self):
        assert str(P([-48, 15, -3])) == "-3*x^2 + 15*x - 48"
        assert str(P([])) == "0"


class TestConsecutive:
    @pytest.mark.parametrize(
        "coeffs", [(), (7,), (-3, 2), (5, 0, -1), (2**70, -(3**40), 17, 0, 1, -9)]
    )
    @pytest.mark.parametrize("start", [0, 1, 4, 32])
    def test_forward_differences_match_horner(self, coeffs, start):
        values = consecutive(coeffs, start, 100)
        assert values == [horner(coeffs, start + n) for n in range(100)]
        assert consecutive(coeffs, start, 1) == values[:1]
        assert consecutive(coeffs, start, 0) == []


class TestPolyDivmod:
    def test_kummer_factorization(self):
        # x^2 - x - 2 = (x + 1)(x - 2)
        q, r = poly_divmod(P([-2, -1, 1]), P([1, 1]))
        assert q == P([-2, 1])
        assert r.is_zero

    def test_identity_divisor(self):
        p = P([F(2, 3), 0, 5, -1])
        q, r = poly_divmod(p, P.one())
        assert q == p and r.is_zero

    def test_roundtrip_random_constant(self):
        rng = random.Random(3)
        for _ in range(20):
            c = rand_rational(rng)
            dividend = P([c, -1, 2, -1])  # -x^3 + 2x^2 - x + c
            divisor = P([1, F(1, 3)])
            q, r = poly_divmod(dividend, divisor)
            assert divisor * q + r == dividend
            assert r.degree < divisor.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P([1, 2]), P.zero())

    def test_roundtrip_property(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rand_poly(rng)
            d = rand_poly(rng, allow_zero=False)
            q, r = poly_divmod(p, d)
            assert d * q + r == p
            assert r.degree < d.degree


class TestExpandKernel:
    def test_k1_s2(self):
        assert expand_kernel(1, 2) == P([0, -1, 2, -1])

    def test_k1_s0(self):
        assert expand_kernel(1, 0) == P([0, -1])

    def test_k2_s4_binomial_oracle(self):
        # oracle: expand -x^2 (1-x)^4 with the binomial theorem directly
        one_minus_x = P([1, -1])
        expected = -(X**2) * one_minus_x**4
        assert expand_kernel(2, 4) == expected
        assert expected == P([0, 0, -1, 4, -6, 4, -1])

    def test_constant_kernel_rejected(self):
        with pytest.raises(ValueError):
            expand_kernel(0, 0)

    def test_matches_direct_expansion(self):
        one_minus_x = P([1, -1])
        for k in range(0, 4):
            for s in range(0, 4):
                if k + s < 1:
                    continue
                assert expand_kernel(k, s) == -(X**k) * one_minus_x**s


class TestParamDivmod:
    def test_cubic_kernel_quotient(self):
        w = P([0, 1])
        dividend = ParamPolynomial(
            [P([0, 0, 0, 1]), P(), P(), P([-1]), P([3]), P([-3]), P([1])]
        )  # x^6 - 3x^5 + 3x^4 - x^3 + w^3
        divisor = ParamPolynomial([w, P([-1]), P([1])])  # x^2 - x + w
        q, r = poly_divmod(dividend, divisor)
        expected = ParamPolynomial(
            [P([0, 0, 1]), P([0, 1]), P([1, -1]), P([-2]), P([1])]
        )  # x^4 - 2x^3 + (1-w)x^2 + wx + w^2
        assert q == expected
        assert r.is_zero

    def test_self_division(self):
        divisor = ParamPolynomial([P([0, 1]), P([-1]), P([1])])
        q, r = poly_divmod(divisor, divisor)
        assert q == ParamPolynomial([P.one()])
        assert r.is_zero

    def test_quintic_kernel(self):
        # w^5 - x^5 (1-x)^5 divided by x^2 - x + w: remainder must vanish
        kernel = ParamPolynomial.from_polynomial(expand_kernel(5, 5))
        w5 = ParamPolynomial([P([0, 0, 0, 0, 0, 1])])
        divisor = ParamPolynomial([P([0, 1]), P([-1]), P([1])])
        q, r = poly_divmod(w5 + kernel, divisor)
        assert r.is_zero
        assert q.coefficient(8) == P.one()
        assert q.coefficient(6) == P([6, -1])  # (6 - w) x^6
        assert divisor * q == w5 + kernel

    def test_non_unit_leading_rejected(self):
        w = P([0, 1])
        bad = ParamPolynomial([P([1]), w])  # leading x-coeff is w
        with pytest.raises(ValueError, match="monic-up-to-constant"):
            poly_divmod(ParamPolynomial([P([1]), P([1]), P([1])]), bad)

    def test_specialization_commutes_with_divmod(self):
        rng = random.Random(23)
        w = P([0, 1])
        dividend = ParamPolynomial([w * w, P([2]), w, P([1]), P([-1, 2])])
        divisor = ParamPolynomial([w, P([-1]), P([2])])
        q, r = poly_divmod(dividend, divisor)
        for _ in range(20):
            w0 = rand_rational(rng)
            q0, r0 = poly_divmod(dividend.specialize(w0), divisor.specialize(w0))
            assert q.specialize(w0) == q0
            assert r.specialize(w0) == r0


class TestOneTypeOverQAndQw:
    def test_lifted_division_specializes_to_rational_division(self):
        rng = random.Random(29)
        for _ in range(200):
            p = rand_poly(rng)
            d = rand_poly(rng, allow_zero=False)
            q, r = poly_divmod(p, d)
            lq, lr = poly_divmod(
                ParamPolynomial.from_polynomial(p),
                ParamPolynomial.from_polynomial(d),
            )
            assert isinstance(lq, ParamPolynomial)
            assert isinstance(lr, ParamPolynomial)
            w0 = rand_rational(rng)
            assert lq.specialize(w0) == q
            assert lr.specialize(w0) == r

    def test_rational_coefficients_lift_to_constants(self):
        a = ParamPolynomial([1, 2])
        b = ParamPolynomial([P([1]), P([2])])
        assert a == b
        assert hash(a) == hash(b)

    def test_polynomial_in_w_is_a_constant_in_x(self):
        w = P([0, 1])
        xw = ParamPolynomial([0, 1])
        expected = ParamPolynomial([w, P([1])])  # x + w
        assert w + xw == expected
        assert xw + w == expected
        assert w * xw == ParamPolynomial([P(), w])
        assert xw - w == -(w - xw)

    def test_rational_and_parameterized_types_stay_apart(self):
        assert P([1, 2]) != ParamPolynomial([1, 2])
        assert P([1, 2]) + 1 == P([2, 2])
        assert P([1]) != "1"
        with pytest.raises(TypeError):
            P([1, 2]) + "1"
        with pytest.raises(TypeError):
            ParamPolynomial([ParamPolynomial([1])])


class TestRootDetection:
    def test_catalog_denominators_are_root_free(self):
        for coeffs in ([1, F(1, 3)], [1, 1], [1, F(1, 8)], [3, 1], [1, -1, 1]):
            assert not has_root_on_unit_interval(P(coeffs))

    def test_sign_change_root(self):
        assert has_root_on_unit_interval(P([-1, 2]))  # 2x - 1

    def test_even_multiplicity_interior_root(self):
        # (x - 1/3)^2 never changes sign; a scan would miss it
        p = (X - F(1, 3)) ** 2
        assert has_root_on_unit_interval(p)
        assert count_distinct_roots_on_unit_interval(p) == 1

    def test_endpoint_roots(self):
        assert has_root_on_unit_interval(X)
        assert has_root_on_unit_interval(X - 1)
        assert count_distinct_roots_on_unit_interval(X * (X - 1)) == 2

    def test_roots_outside_interval_ignored(self):
        assert not has_root_on_unit_interval((X + 1) * (X - 2))

    def test_counting(self):
        p = (X - F(1, 4)) * (X - F(3, 4)) * (X - F(1, 2))
        assert count_distinct_roots_on_unit_interval(p) == 3

    def test_agrees_with_random_factorizations(self):
        rng = random.Random(5)
        for _ in range(60):
            roots = [F(rng.randint(-8, 16), 8) for _ in range(rng.randint(1, 4))]
            p = P.one()
            for root in roots:
                p = p * (X - root)
            expected = any(0 <= root <= 1 for root in roots)
            assert has_root_on_unit_interval(p) == expected


def kernel_polynomials(rng, count):
    """``count`` random polynomials over Q of degree at most 7: zero, constants
    and either sign of leading coefficient, and in three of every four a root
    of multiplicity 2 or 3 forced at 0, at 1 or inside (0, 1)."""
    for i in range(count):
        multiplicity = rng.randint(2, 3)
        forced = (None, F(0), F(1), F(rng.randint(1, 15), 16))[i % 4]
        p = rand_poly(rng, max_deg=7 - multiplicity if forced is not None else 7)
        if forced is not None:
            p = p * (X - forced) ** multiplicity
        yield p


def check_kernel(p, q):
    """The integer kernel on the integer forms of ``p`` and ``q`` agrees with
    ``Polynomial`` arithmetic and the oracles over Q."""
    (a,), (b,) = integer_coefficients(p.coeffs), integer_coefficients(q.coeffs)
    assert P(a) == p * (F(a[-1]) / p.leading if a else 1)
    # more points than either degree: the values decide the polynomials
    s, m, points = coeff_sum(a, b), coeff_product(a, b), range(-3, len(a) + len(b))
    assert (not s or s[-1]) and (not m or m[-1])
    assert all(horner(s, x) == horner(a, x) + horner(b, x) for x in points)
    assert all(horner(m, x) == horner(a, x) * horner(b, x) for x in points)
    g = int_gcd(a, b)
    assert P(g) == oracles.poly_gcd(P(a), P(b)) * (g[-1] if g else 1)
    assert not g or (g[-1] > 0 and primitive(g) == g)
    if b:
        r = poly_divmod(P(a), P(b))[1]
        pr = pseudo_remainder(a, b)
        assert len(pr) == len(r.coeffs)
        assert not pr or (pr[-1] / r.leading > 0 and P(pr) == r * (pr[-1] / r.leading))
        divisor = primitive(b)
        assert exact_quotient(coeff_product(a, divisor), divisor) == a
    if a:
        assert count_distinct_roots_on_unit_interval(p) == (
            oracles.count_distinct_roots_on_unit_interval(p)
        )


def check_kernel_agreement(seed, count):
    """``check_kernel`` on ``count`` random pairs, each polynomial also against
    its derivative: the pairs whose gcd is a repeated root."""
    rng = random.Random(seed)
    polys = kernel_polynomials(rng, count)
    for p, q in zip(polys, kernel_polynomials(rng, count)):
        check_kernel(p, q)
        check_kernel(p, oracles.derivative(p))


class TestIntegerKernel:
    def test_agrees_with_the_oracles(self):
        check_kernel_agreement(seed=31, count=600)

    @pytest.mark.parametrize(
        "p",
        [P(), P([5]), P([-F(1, 3)]), P([1, -1]), P([3, 0, -2]), P([0, 0, -7]),
         -(X - F(1, 2)) ** 2, -X**3 * (X - 1) ** 2],
        ids=["zero", "constant", "negative-constant", "1-x", "negative-lead",
             "-7x^2", "negative-double-root", "negative-endpoint-roots"],
    )
    def test_edges(self, p):
        for q in (P(), P([2]), P([-1, 1]), X * (X - F(1, 3)), p):
            check_kernel(p, q)
            check_kernel(q, p)

    def test_gcd_with_zero(self):
        # a summand such as 5*0^n has the ratio 0 / 1: its leaves cancel by gcd(0, 1)
        assert int_gcd((), (3, 6)) == (1, 2)
        assert int_gcd((-4, -2), ()) == (2, 1)
        assert int_gcd((), ()) == ()
        assert leaf_forms(((), (1,)), ((5,), (1,))) == ((), (1,), (1,), (5,))
        assert leaf_forms(((), (1,)), ((5,), (1,))) == oracles.leaf_forms(((), (1,)), ((5,), (1,)))

    def test_zero_literal_folds_to_the_empty_sum(self):
        assert parse_term_expr("0") == ()
        assert parse_term_expr("0*fact(n)") == ()
        assert parse_term_expr("n - n") == ()


@pytest.fixture(scope="module")
def catalog_cores():
    """Every term core a ``verify --all`` at 10 digits sums."""
    seen = {}
    real = engine.sum_terms

    def spy(cores, *args, **kwargs):
        seen.update(dict.fromkeys(cores))
        return real(cores, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "sum_terms", spy)
        patch.setattr(hyper, "sum_terms", spy)
        assert catalog.run_all(digits=10)["failed"] == 0
    return list(seen)


class TestCatalogCoreForms:
    def test_catalog_cores_are_found(self, catalog_cores):
        assert len(catalog_cores) >= 30

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_forms_agree_with_the_oracles(self, catalog_cores, m):
        for base in catalog_cores:
            core = base.grouped(m)
            if m > 1:
                assert core.weight == oracles.grouped_weight(base, m)
            assert core.integer_ratio == oracles.integer_ratio(core)
            assert core.split_forms == oracles.leaf_forms(core.integer_ratio, core.weight)
            assert core.tail_forms == oracles.tail_forms(core)
