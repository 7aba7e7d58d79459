"""``integrate`` against a frozen copy of its node-by-node predecessor.

``reference_integrate`` computes the transform of every node afresh, the
node at ``-t`` on its own, and ``x^a (1-x)^b`` as two general powers, as
``integrate`` did before the node tables.  The tabled ``integrate`` forms
``x^a (1-x)^b`` as one exponential of tabled logarithms when an exponent is
not a multiple of 1/2, which rounds differently, so the two must agree to a
relative ``10^-(d+10)`` (10 digits inside the integrator's 15 guard digits)
rather than bit for bit; with integer and half-integer exponents they
still agree bit for bit.  ``integrate`` itself must return the same bits
whatever the tables already hold: fresh, after other precisions, and after
the cache is cleared.  Plain ``x^a (1-x)^b`` is checked against
``mp.beta(a+1, b+1)``.
"""

from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries import references
from betaseries.polynomials import Polynomial
from betaseries.quadrature import (
    KernelForm,
    QuadratureError,
    QuadratureProblem,
    integrate,
)


def _horner(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_integrate(problem, target_digits, max_levels=20):
    """The tanh-sinh rule with every node's transform computed on its own."""
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    wp = target_digits + 15
    with mp.workdps(wp):
        a = mpf(problem.a.numerator) / problem.a.denominator
        b = mpf(problem.b.numerator) / problem.b.denominator
        num_coeffs = tuple(
            mpf(c.numerator) / c.denominator for c in problem.numerator.coeffs
        )
        den = problem.denominator
        if isinstance(den, Polynomial):
            den_coeffs = tuple(mpf(c.numerator) / c.denominator for c in den.coeffs)

            def denom(x, omx):
                return _horner(den_coeffs, x)

        elif isinstance(den, KernelForm):
            zv = mpf(den.z.numerator) / den.z.denominator
            kk, ks = den.k, den.s

            def denom(x, omx):
                return zv - x**kk * omx**ks

        else:

            def denom(x, omx):
                return mpf(1)

        pi_half = mp.pi / 2

        def node(t):
            u = pi_half * mp.sinh(t)
            if u >= 0:
                em = mp.exp(-2 * u)
                x = 1 / (1 + em)
                omx = em / (1 + em)
            else:
                ep = mp.exp(2 * u)
                x = ep / (1 + ep)
                omx = 1 / (1 + ep)
            if x == 0 or omx == 0:
                return mpf(0)
            weight = mp.pi * mp.cosh(t) * x * omx
            val = x**a * omx**b * _horner(num_coeffs, x) / denom(x, omx)
            return val * weight

        trunc_tol = mpf(10) ** (-(wp + 5))
        agree_tol = mpf(10) ** (-(target_digits + 5))
        t_cap = mpf(15)

        def pair_sum(h, start, step):
            total = mpf(0)
            small = 0
            j = start
            while j * h <= t_cap:
                contrib = node(j * h) + node(-j * h)
                total += contrib
                if abs(contrib) < trunc_tol:
                    small += 1
                    if small >= 3:
                        break
                else:
                    small = 0
                j += step
            return total

        h = mpf(1)
        estimate = h * (node(mpf(0)) + pair_sum(h, 1, 1))
        previous = None
        for _level in range(max_levels):
            if previous is not None and abs(estimate - previous) <= agree_tol * max(
                mpf(1), abs(estimate)
            ):
                return estimate
            previous = estimate
            h = h / 2
            estimate = previous / 2 + h * pair_sum(h, 1, 2)
        raise QuadratureError(
            f"no convergence to {target_digits} digits after {max_levels} levels"
        )


EXPONENTS = [
    (F(0), F(0)),
    (F(-2, 3), F(1, 3)),
    (F(-4, 5), F(3, 5)),
    (F(-1, 2), F(-1, 2)),
    (F(1, 7), F(5, 2)),
    (F(3), F(2)),
    (F(-9, 10), F(0)),
]

NUMERATOR = Polynomial((16, -5, 1))
DENOMINATORS = {
    "none": None,
    "poly": Polynomial((3, F(-1, 2), 1)),
    "kernel": KernelForm(z=F(-48), k=1, s=2),
}


def problem(ab, den):
    a, b = ab
    if den == "none":
        return QuadratureProblem(a=a, b=b)
    return QuadratureProblem(
        a=a, b=b, numerator=NUMERATOR, denominator=DENOMINATORS[den]
    )


def assert_matches_reference(problem_, digits):
    ours = integrate(problem_, digits)
    theirs = reference_integrate(problem_, digits)
    if max(problem_.a.denominator, problem_.b.denominator) <= 2:
        # integer and half-integer powers are still rounded one by one
        assert ours._mpf_ == theirs._mpf_
    with mp.workdps(digits + 30):
        assert abs(ours - theirs) <= mpf(10) ** -(digits + 10) * abs(theirs)


@pytest.mark.parametrize("den", sorted(DENOMINATORS))
@pytest.mark.parametrize("ab", EXPONENTS, ids=lambda ab: f"a={ab[0]},b={ab[1]}")
@pytest.mark.parametrize("digits", [10, 30, 100])
def test_matches_reference(digits, ab, den):
    assert_matches_reference(problem(ab, den), digits)


@pytest.mark.parametrize(
    "ab, den",
    [
        ((F(-1, 2), F(-1, 2)), "none"),
        ((F(-1, 2), F(0)), "kernel"),
        ((F(3), F(2)), "poly"),
    ],
)
def test_matches_reference_at_200_digits(ab, den):
    assert_matches_reference(problem(ab, den), 200)


@pytest.mark.parametrize("ab", EXPONENTS, ids=lambda ab: f"a={ab[0]},b={ab[1]}")
@pytest.mark.parametrize("digits", [30, 100])
def test_plain_powers_match_beta(digits, ab):
    a, b = ab
    value = integrate(problem(ab, "none"), digits)
    with mp.workdps(digits + 20):
        exact = mp.beta(
            mpf(a.numerator) / a.denominator + 1,
            mpf(b.numerator) / b.denominator + 1,
        )
        assert abs(value - exact) <= mpf(10) ** -digits * exact


def test_interleaved_precisions():
    p = problem((F(-2, 3), F(1, 3)), "kernel")
    references._cache.clear()
    expected = {d: integrate(p, d)._mpf_ for d in (30, 100)}
    references._cache.clear()
    for digits in (30, 100, 30):
        assert integrate(p, digits)._mpf_ == expected[digits]
    assert_matches_reference(p, 30)


def test_after_cache_clear():
    p = problem((F(-4, 5), F(3, 5)), "poly")
    warm = integrate(p, 40)
    references._cache.clear()
    cold = integrate(p, 40)
    assert cold._mpf_ == warm._mpf_
    assert_matches_reference(p, 40)


def test_node_tables_share_the_reference_cache():
    references._cache.clear()
    integrate(problem((F(0), F(0)), "none"), 20)
    assert references._cache
    references._cache.clear()
    assert not references._cache


def test_too_few_levels_raise():
    p = problem((F(-1, 2), F(-1, 2)), "none")
    with pytest.raises(QuadratureError) as ours:
        integrate(p, 30, max_levels=1)
    with pytest.raises(QuadratureError) as theirs:
        reference_integrate(p, 30, max_levels=1)
    assert str(ours.value) == str(theirs.value)


def test_imports_no_derivation_code():
    # the quadrature is an independent check of derived series
    import ast
    import inspect

    from betaseries import quadrature

    tree = ast.parse(inspect.getsource(quadrature))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "derive" not in modules and "expressions" not in modules
