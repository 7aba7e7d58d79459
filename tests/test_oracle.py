"""Quadrature and reference constants: the independent side of every check."""

import math
import random
from fractions import Fraction as F

import pytest
from mpmath import gamma as mp_gamma
from mpmath import mp, mpf

from betaseries import cli, references
from betaseries.catalog import _quadrature_problem, load_catalog
from betaseries.polynomials import Polynomial, convergence_bound, kernel_polynomial
from betaseries.quadrature import QuadratureProblem, integrate
from betaseries.references import (
    asin_of,
    atan_of,
    beta_value,
    catalan_accelerated,
    gamma_combination,
    ln2_series,
    ln_of,
    nth_root,
    pi_machin,
    sqrt_of,
)


KERNEL_EXPONENTS = [(1, 0), (0, 2), (1, 1), (1, 2), (2, 4), (3, 3)]
KERNEL_POINTS = [F(0), F(1, 7), F(1, 2), F(5, 6), F(1)]


def assert_is_kernel(poly, z, k, s):
    """``poly`` is ``z - x^k (1-x)^s``, checked exactly at rational points."""
    for x in KERNEL_POINTS:
        assert poly(x) == z - x**k * (1 - x) ** s, (z, k, s, x)


def integral_leaves(node):
    """Every ``integral`` argument in a catalog recipe tree."""
    if isinstance(node, dict):
        for key, arg in node.items():
            if key == "integral":
                yield arg
            else:
                yield from integral_leaves(arg)
    elif isinstance(node, list):
        for item in node:
            yield from integral_leaves(item)


class TestQuadratureValidation:
    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            QuadratureProblem(a=F(-1), b=F(0))
        with pytest.raises(ValueError):
            QuadratureProblem(a=F(0), b=F(-5, 4))

    def test_polynomial_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            QuadratureProblem(a=F(0), b=F(0), denominator=Polynomial([-1, 2]))

    def test_kernel_vanishing_rejected(self):
        # 0 <= z <= sup x(1-x) = 1/4 vanishes inside [0, 1]
        with pytest.raises(ValueError, match="root"):
            QuadratureProblem(
                a=F(0), b=F(0), denominator=kernel_polynomial(F(1, 8), 1, 1)
            )

    def test_negative_kernel_ok(self):
        QuadratureProblem(a=F(0), b=F(0), denominator=kernel_polynomial(F(-2), 1, 1))

    @pytest.mark.parametrize("k, s", KERNEL_EXPONENTS)
    def test_root_scan_rejects_exactly_the_vanishing_kernels(self, k, s):
        # x^k (1-x)^s covers [0, M] on [0, 1], so z - x^k (1-x)^s vanishes
        # there iff 0 <= z <= M; z = M is a tangent double root
        bound = convergence_bound(k, s)
        eps = F(1, 10**6)
        vanishing = [F(0), eps, bound / 2, bound - eps, bound]
        root_free = [F(-48), F(-1), -eps, bound + eps, 2 * bound, F(48)]
        for z in vanishing:
            with pytest.raises(ValueError, match="root"):
                QuadratureProblem(
                    a=F(0), b=F(0), denominator=kernel_polynomial(z, k, s)
                )
        for z in root_free:
            QuadratureProblem(a=F(0), b=F(0), denominator=kernel_polynomial(z, k, s))


class TestKernelPolynomial:
    @pytest.mark.parametrize("k, s", KERNEL_EXPONENTS)
    def test_kernel_polynomial(self, k, s):
        for z in (F(-48), F(-2, 7), F(0), F(5, 2)):
            assert_is_kernel(kernel_polynomial(z, k, s), z, k, s)

    @pytest.mark.parametrize("k, s", KERNEL_EXPONENTS)
    def test_cli_kernel(self, k, s):
        for z in (F(-48), F(-2, 7), F(5, 2)):
            assert_is_kernel(cli._kernel(f"{z},{k},{s}"), z, k, s)

    def test_catalog_den_kernel_leaves(self):
        leaves = [
            leaf
            for record in load_catalog()
            for side in (record.lhs, record.rhs)
            for leaf in integral_leaves(side)
            if "den_kernel" in leaf
        ]
        assert leaves
        for leaf in leaves:
            kd = leaf["den_kernel"]
            z, k, s = F(kd["z"]), int(kd["k"]), int(kd["s"])
            assert_is_kernel(_quadrature_problem(leaf).denominator, z, k, s)


class TestIntegrate:
    def test_beta_half_half_is_pi(self):
        value = integrate(QuadratureProblem(a=F(-1, 2), b=F(-1, 2)), 30)
        with mp.workdps(45):
            assert abs(value - pi_machin(40)) < mpf(10) ** -30

    def test_arcsine_seed_integral(self):
        # int x^(-1/2)/(1 + x/3) = pi sqrt(3)/3
        value = integrate(
            QuadratureProblem(
                a=F(-1, 2), b=F(0), denominator=Polynomial([1, F(1, 3)])
            ),
            30,
        )
        with mp.workdps(45):
            expected = pi_machin(40) * sqrt_of(mpf(3)) / 3
            assert abs(value - expected) < mpf(10) ** -30

    def test_gamma_third_integral(self):
        # int x^(-1/3) (1-x)^(-1/2) / (1 + x/8) = 4 sqrt(3) pi / 9
        value = integrate(
            QuadratureProblem(
                a=F(-1, 3), b=F(-1, 2), denominator=Polynomial([1, F(1, 8)])
            ),
            30,
        )
        with mp.workdps(45):
            expected = 4 * sqrt_of(mpf(3)) * pi_machin(40) / 9
            assert abs(value - expected) < mpf(10) ** -30

    def test_kernel_form_with_numerator(self):
        # the (2.8)-shaped integrand against its closed value -pi sqrt(3)/9
        value = integrate(
            QuadratureProblem(
                a=F(-1, 2),
                b=F(0),
                numerator=Polynomial([16, -5, 1]),
                denominator=kernel_polynomial(F(-48), 1, 2),
            ),
            30,
        )
        with mp.workdps(45):
            expected = -pi_machin(40) * sqrt_of(mpf(3)) / 9
            assert abs(value - expected) < mpf(10) ** -30

    def test_beta_identity_random_parameters(self):
        # quadrature equals the Gamma-product reference across (0, 3]
        rng = random.Random(17)
        with mp.workdps(45):
            for _ in range(6):
                p = F(rng.randint(1, 24), 8)
                q = F(rng.randint(1, 24), 8)
                value = integrate(QuadratureProblem(a=p - 1, b=q - 1), 30)
                expected = (
                    mp_gamma(mpf(p.numerator) / p.denominator)
                    * mp_gamma(mpf(q.numerator) / q.denominator)
                    / mp_gamma(mpf((p + q).numerator) / (p + q).denominator)
                )
                assert abs(value - expected) < mpf(10) ** -29

    def test_strong_endpoint_singularity(self):
        # a = -4/5 stresses the substitution's tail handling
        value = integrate(QuadratureProblem(a=F(-4, 5), b=F(3, 5)), 30)
        with mp.workdps(45):
            expected = (
                mp_gamma(mpf(1) / 5) * mp_gamma(mpf(8) / 5) / mp_gamma(mpf(9) / 5)
            )
            assert abs(value - expected) < mpf(10) ** -29

    def test_bad_digits(self):
        with pytest.raises(ValueError):
            integrate(QuadratureProblem(a=F(0), b=F(0)), 0)


DIGITS = [30, 100, 300, 1000]

#: (id, reference function, its argument, mpmath's function)
FUNCTION_CASES = [
    ("atan(1/sqrt(3))", atan_of, lambda: 1 / sqrt_of(3), mp.atan),
    ("atan(1/sqrt(7))", atan_of, lambda: 1 / sqrt_of(7), mp.atan),
    ("atan(1/sqrt(12))", atan_of, lambda: 1 / sqrt_of(12), mp.atan),
    ("asin(1/2)", asin_of, lambda: mpf(1) / 2, mp.asin),
    ("asin(1/3)", asin_of, lambda: mpf(1) / 3, mp.asin),
    ("asin(2/5)", asin_of, lambda: mpf(2) / 5, mp.asin),
    ("ln(2-sqrt(3))", ln_of, lambda: 2 - sqrt_of(3), mp.log),
    ("sqrt(3)", sqrt_of, lambda: mpf(3), mp.sqrt),
    ("root(2,3)", lambda x: nth_root(x, 3), lambda: mpf(2), mp.cbrt),
] + [
    (
        f"root(7e{e},{m})",
        lambda x, m=m: nth_root(x, m),
        lambda e=e: 7 * mpf(10) ** e,
        lambda x, m=m: mp.root(x, m),
    )
    for e in (400, -400)
    for m in (2, 3, 5)
] + [
    # ln_of's m at both ends of [2/3, 4/3), at and just off 1, and far exponents
    (f"ln({name})", ln_of, argument, mp.log)
    for name, argument in [
        ("2/3", lambda: mpf(2) / 3),
        ("4/3-1e-8", lambda: mpf(4) / 3 - mpf(10) ** -8),
        ("1+1e-20", lambda: 1 + mpf(10) ** -20),
        ("1-1e-20", lambda: 1 - mpf(10) ** -20),
        ("1", lambda: mpf(1)),
        ("2^-300", lambda: mp.ldexp(mpf(1), -300)),
        ("7e400", lambda: 7 * mpf(10) ** 400),
        ("3e-400", lambda: 3 * mpf(10) ** -400),
    ]
]


class TestElementaryFunctions:
    @pytest.mark.parametrize("case", FUNCTION_CASES, ids=lambda case: case[0])
    @pytest.mark.parametrize("digits", DIGITS)
    def test_against_mpmath(self, digits, case):
        # evaluated 5 digits past the check, as catalog leaves are; mpmath
        # gets the same mpf argument
        _, function, argument, exact = case
        with mp.workdps(digits + 5):
            x = argument()
            value = function(x)
        with mp.workdps(digits + 30):
            expected = exact(x)
            assert abs(value - expected) <= mpf(10) ** -(digits + 5) * abs(expected)

    def test_nth_root(self):
        with mp.workdps(50):
            two = nth_root(mpf(32), 5)
            assert abs(two - 2) < mpf(10) ** -45
            s = sqrt_of(mpf(9) / 4)
            assert abs(s - mpf(3) / 2) < mpf(10) ** -45

    @pytest.mark.parametrize("exponent", [400, -400])
    @pytest.mark.parametrize("m", [2, 3])
    def test_nth_root_outside_float_range(self, m, exponent):
        with mp.workdps(50):
            x = mpf(10) ** exponent * 7
            expected = mp.sqrt(x) if m == 2 else mp.cbrt(x)
            assert abs(nth_root(x, m) - expected) <= abs(expected) * mpf(10) ** -45

    def test_sqrt_reference_outside_float_range(self):
        with mp.workdps(40):
            big = sqrt_of(mpf(10) ** 400)
            small = sqrt_of(1 / mpf(10) ** 400)
        with mp.workdps(30):
            assert abs(big / mpf(10) ** 200 - 1) < mpf(10) ** -28
            assert abs(small * mpf(10) ** 200 - 1) < mpf(10) ** -28

    def test_asin_fuzz_against_mpmath(self):
        # |x| from 0 up to 1 - 2^-40, where 1 - x^2 cancels, at 5-120 digits
        rng = random.Random(7)
        draws = 0
        while draws < 400:
            digits = rng.randint(5, 120)
            with mp.workdps(digits):
                x = rng.choice((-1, 1)) * (1 - mpf(2) ** -rng.uniform(0, 40))
                if abs(x) == 1:
                    continue
                value = asin_of(x)
            draws += 1
            with mp.workdps(digits + 30):
                expected = mp.asin(x)
                assert abs(value - expected) <= mpf(10) ** -(digits + 3) * abs(expected)

    def test_atan_known_value(self):
        with mp.workdps(50):
            # atan(1/sqrt(3)) = pi/6
            value = atan_of(1 / sqrt_of(mpf(3)))
            assert abs(value - pi_machin(50) / 6) < mpf(10) ** -45

    def test_asin_known_value(self):
        with mp.workdps(50):
            value = asin_of(mpf(1) / 2)
            assert abs(value - pi_machin(50) / 6) < mpf(10) ** -45

    def test_ln_consistency(self):
        with mp.workdps(50):
            assert abs(ln_of(mpf(2)) - ln2_series(50)) < mpf(10) ** -45
            # ln(2 - sqrt(3)) = -ln(2 + sqrt(3))
            s3 = sqrt_of(mpf(3))
            assert abs(ln_of(2 - s3) + ln_of(2 + s3)) < mpf(10) ** -45

    def test_repeated_argument_sums_no_series(self, monkeypatch):
        # the catalog's arctangents repeat arguments; each series is kept
        widths = _count_series(monkeypatch)
        references._cache.clear()
        with mp.workdps(60):
            x = 1 / sqrt_of(mpf(3))
            first = [atan_of(x), ln_of(x), asin_of(x / 2)]
            calls = len(widths)
            again = [atan_of(x), ln_of(x), asin_of(x / 2)]
        assert calls and len(widths) == calls
        assert [v._mpf_ for v in again] == [v._mpf_ for v in first]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ln_of(mpf(0))
        with pytest.raises(ValueError):
            asin_of(mpf(1))
        with pytest.raises(ValueError):
            nth_root(mpf(-1), 2)


class TestReferenceConstants:
    @pytest.mark.parametrize(
        "constant, exact",
        [(pi_machin, "pi"), (ln2_series, "ln2"), (catalan_accelerated, "catalan")],
        ids=["pi", "ln2", "catalan"],
    )
    # 1-10 digits: Catalan's acceleration runs 21 to 33 terms at one depth,
    # so the error is what the CVZ bound G / d_n allows
    @pytest.mark.parametrize("digits", [*range(1, 11), *DIGITS])
    def test_against_mpmath(self, digits, constant, exact):
        value = constant(digits)
        with mp.workdps(digits + 30):
            expected = getattr(mp, exact)
            assert abs(value - expected) <= mpf(10) ** -(digits + 5) * expected

    def test_pi_two_ways(self):
        # Machin arctangents vs Beta(1/2,1/2) quadrature, 50 digits
        machin = pi_machin(50)
        quad = integrate(QuadratureProblem(a=F(-1, 2), b=F(-1, 2)), 50)
        with mp.workdps(65):
            assert abs(machin - quad) < mpf(10) ** -50

    def test_catalan_value(self):
        with mp.workdps(45):
            value = catalan_accelerated(35)
            known = mpf("0.91596559417721901505460351493238411077414937428167")
            assert abs(value - known) < mpf(10) ** -34

    def test_cache_returns_same_object(self):
        a = pi_machin(33)
        b = pi_machin(33)
        assert a == b

    def test_concurrent_reads(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: pi_machin(37), range(32)))
        assert all(v == values[0] for v in values)


def _mpf(r):
    return mpf(r.numerator) / r.denominator


#: every Beta argument the catalog uses: the Gamma(1/3)^3, Gamma(1/4)^2 and
#: Gamma(1/5) records, and the two Beta values of each kummer(h)
CATALOG_BETA_PAIRS = [(F(1, 3), F(1, 3)), (F(1, 4), F(1, 4)), (F(1, 5), F(1, 5))]
for _h in (F(1, 3), F(1, 4), F(1, 5)):
    CATALOG_BETA_PAIRS += [(_h, 2 - 2 * _h), (F(1, 2), F(3, 2) - _h)]


def _count_series(monkeypatch):
    """Route ``references._fixed_sum`` through a spy; returns the list of the
    bit lengths of the first terms it is called with."""
    fixed_sum, widths = references._fixed_sum, []

    def spy(t, *args):
        widths.append(t.bit_length())
        return fixed_sum(t, *args)

    monkeypatch.setattr(references, "_fixed_sum", spy)
    return widths


def _pair_id(pq):
    return f"{pq[0]},{pq[1]}"


class TestBetaSeries:
    """``beta_value`` (positive Gauss series after an exact reduction of the
    arguments into (0, 1]) against quadrature and against mpmath."""

    @pytest.mark.parametrize("pq", CATALOG_BETA_PAIRS, ids=_pair_id)
    @pytest.mark.parametrize("digits", [30, 100])
    def test_against_quadrature(self, digits, pq):
        p, q = pq
        series = beta_value(p, q, digits)
        quad = integrate(QuadratureProblem(a=p - 1, b=q - 1), digits)
        with mp.workdps(digits + 20):
            assert abs(series - quad) <= mpf(10) ** -(digits + 5) * quad

    @pytest.mark.parametrize("pq", CATALOG_BETA_PAIRS, ids=_pair_id)
    def test_against_mpmath_at_300_digits(self, pq):
        p, q = pq
        value = beta_value(p, q, 300)
        with mp.workdps(330):
            exact = mp.beta(_mpf(p), _mpf(q))
            assert abs(value - exact) <= mpf(10) ** -310 * exact

    def test_against_mpmath_at_1000_digits(self):
        for p, q in CATALOG_BETA_PAIRS[:3]:
            value = beta_value(p, q, 1000)
            with mp.workdps(1030):
                exact = mp.beta(_mpf(p), _mpf(q))
                assert abs(value - exact) <= mpf(10) ** -1010 * exact

    @pytest.mark.parametrize(
        "pq",
        [
            (F(1, 2), F(201, 2)),
            (F(1, 2), F(301, 2)),
            (F(1, 2), F(401, 2)),
            (F(1, 3), F(150)),
            (F(5), F(2)),
            (F(7, 2), F(1)),
            (F(300), F(300)),
            (F(99999, 7), F(3)),
            (F(1, 7), F(5000)),
            (F(4000, 3), F(3999, 7)),
        ],
        ids=_pair_id,
    )
    @pytest.mark.parametrize("digits", [30, 100])
    def test_large_q_against_mpmath(self, digits, pq):
        # p and q are reduced into (0, 1] by an exact rational factor
        p, q = pq
        value = beta_value(p, q, digits)
        assert beta_value(q, p, digits) == value
        with mp.workdps(digits + 30):
            exact = mp.beta(_mpf(p), _mpf(q))
            assert abs(value - exact) <= mpf(10) ** -(digits + 5) * exact

    @pytest.mark.parametrize(
        "x, m, d", [(3, 0, 7), (5, 31, 7), (99999, 14285, 7), (1, 1000, 1)]
    )
    def test_rising_product_tree(self, x, m, d):
        # the balanced tree multiplies the same factors as one running product
        assert references._rising(x, m, d) == math.prod(x + i * d for i in range(m))

    def test_each_series_summed_once(self, monkeypatch):
        # B(1/2, 2001/2) at 30 digits: the two positive series of the reduced
        # pair (1/2, 1/2) are one series, summed once
        widths = _count_series(monkeypatch)
        references._cache.clear()
        p, q = F(1, 2), F(2001, 2)
        value = beta_value(p, q, 30)
        assert len(widths) == 1
        with mp.workdps(60):
            exact = mp.beta(_mpf(p), _mpf(q))
            assert abs(value - exact) <= mpf(10) ** -35 * exact

    @pytest.mark.parametrize(
        "pq", [(F(1, 3), F(1, 3)), (F(1, 4), F(1, 4)), (F(1, 3), F(2, 3))], ids=_pair_id
    )
    def test_series_calls_per_pair(self, monkeypatch, pq):
        # one series for u = v, two otherwise
        widths = _count_series(monkeypatch)
        references._cache.clear()
        beta_value(*pq, 40)
        assert len(widths) == (1 if pq[0] == pq[1] else 2)

    def test_reduced_pairs_share_their_sums(self, monkeypatch):
        # B(1/3, 4/3) reduces to the pair (1/3, 1/3) of B(1/3, 1/3)
        widths = _count_series(monkeypatch)
        references._cache.clear()
        first = beta_value(F(1, 3), F(1, 3), 40)
        assert len(widths) == 1
        second = beta_value(F(1, 3), F(4, 3), 40)
        assert len(widths) == 1
        references._cache.clear()
        assert beta_value(F(1, 3), F(4, 3), 40)._mpf_ == second._mpf_
        assert beta_value(F(1, 3), F(1, 3), 40)._mpf_ == first._mpf_
        with mp.workdps(60):
            exact = mp.beta(mpf(1) / 3, mpf(4) / 3)
            assert abs(second - exact) <= mpf(10) ** -45 * exact

    @pytest.mark.parametrize("digits", [30, 100])
    def test_kept_sums_give_the_fresh_bits(self, digits):
        pairs = [(F(1, 3), F(1, 3)), (F(1, 3), F(4, 3)), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 2))]
        fresh = []
        for pq in pairs:
            references._cache.clear()
            fresh.append(beta_value(*pq, digits)._mpf_)
        references._cache.clear()
        for pq, bits in reversed(list(zip(pairs, fresh))):
            assert beta_value(*pq, digits)._mpf_ == bits

    @pytest.mark.parametrize("p", [F(1, 3), F(7, 2), F(5), F(123, 10)])
    def test_terminating(self, p):
        # B(p, 1) = 1/p and B(p, 2) = 1/(p (p+1)): the root 2^-(p'+q') and
        # the two series of the reduced pair combine to a rational
        with mp.workdps(80):
            for q, exact in ((F(1), 1 / p), (F(2), 1 / (p * (p + 1)))):
                value = beta_value(p, q, 60)
                assert abs(value - _mpf(exact)) <= mpf(10) ** -70 * _mpf(exact)
                assert beta_value(q, p, 60) == value

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            beta_value(F(0), F(1, 2), 30)
        with pytest.raises(ValueError):
            beta_value(F(1, 2), F(-1, 3), 30)


def _kummer_gamma(h):
    h = _mpf(h)
    return mp.sqrt(mp.pi) * mp_gamma(2 - 2 * h) * mp_gamma(h) / (2 * mp_gamma(1.5 - h))


#: the catalog's Gamma values, each by mpmath's Gamma at the caller's precision
GAMMA_VALUES = {
    "G13cubed": lambda: mp_gamma(mpf(1) / 3) ** 3,
    "G14sq": lambda: mp_gamma(mpf(1) / 4) ** 2,
    "G34sq": lambda: mp_gamma(mpf(3) / 4) ** 2,
    "kummer(1/3)": lambda: _kummer_gamma(F(1, 3)),
    "kummer(1/4)": lambda: _kummer_gamma(F(1, 4)),
    "kummer(1/5)": lambda: _kummer_gamma(F(1, 5)),
}


class TestGammaCombinations:
    @pytest.mark.parametrize("tag", sorted(GAMMA_VALUES))
    def test_against_mpmath_gamma_at_100_digits(self, tag):
        value = gamma_combination(tag, 100)
        with mp.workdps(130):
            expected = GAMMA_VALUES[tag]()
            assert abs(value - expected) <= mpf(10) ** -100 * abs(expected)

    def test_kummer_half_collapses_to_half_pi(self):
        value = gamma_combination("kummer(1/2)", 30)
        with mp.workdps(45):
            assert abs(value - pi_machin(40) / 2) < mpf(10) ** -30

    def test_kummer_against_gamma_products(self):
        with mp.workdps(50):
            for h in (F(1, 3), F(1, 4), F(1, 5)):
                value = gamma_combination(f"kummer({h})", 30)
                hf = mpf(h.numerator) / h.denominator
                expected = (
                    mp.sqrt(mp.pi)
                    * mp_gamma(2 - 2 * hf)
                    * mp_gamma(hf)
                    / (2 * mp_gamma(mpf(3) / 2 - hf))
                )
                assert abs(value - expected) < mpf(10) ** -29

    def test_gamma_third_cubed(self):
        value = gamma_combination("G13cubed", 30)
        with mp.workdps(45):
            expected = mp_gamma(mpf(1) / 3) ** 3
            assert abs(value - expected) < mpf(10) ** -29

    def test_kummer_third_collapses_by_duplication(self):
        # Gamma duplication/reflection collapse kummer(1/3) to 2^(1/3) pi/sqrt(3)
        value = gamma_combination("kummer(1/3)", 30)
        with mp.workdps(45):
            expected = nth_root(mpf(2), 3) * pi_machin(40) / sqrt_of(mpf(3))
            assert abs(value - expected) < mpf(10) ** -29

    def test_reflection_pair(self):
        with mp.workdps(45):
            g14 = gamma_combination("G14sq", 30)
            g34 = gamma_combination("G34sq", 30)
            # Gamma(1/4)^2 * Gamma(3/4)^2 = 2 pi^2 by reflection
            assert abs(g14 * g34 - 2 * pi_machin(40) ** 2) < mpf(10) ** -27

    def test_kummer_domain(self):
        with pytest.raises(ValueError):
            gamma_combination("kummer(3/2)", 20)
        with pytest.raises(ValueError):
            gamma_combination("nonsense", 20)
