"""Acceptance criteria.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to stream them).
Everything here runs at desk scale: the full module takes well under a
minute.
"""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from betaseries.catalog import eval_recipe, load_catalog, verify
from betaseries.derive import SeedIntegral, solve_seed, solve_seed_param
from betaseries.engine import derived_terms, evaluate_expr, to_mpf
from betaseries.expressions import pochhammer
from betaseries.hyper import HypSeriesSpec, group, measured_rate
from betaseries.polynomials import (
    ParamPolynomial,
    Polynomial,
    expand_kernel,
    poly_divmod,
)
from betaseries.quadrature import QuadratureProblem, integrate
from betaseries.references import pi_machin, sqrt_of
from betaseries.wire import series_spec_from_dict
from scratch_terms import derived_term, expr_terms, hyp_term, partial_sums

P = Polynomial

EQ_1_1 = "fact(2*n)*(130*n+109)/(poch(7/6,n)*poch(11/6,n)*(-1296)^n)"
EQ_2_11 = (
    "fact(4*n)^2*fact(6*n)*(127169/(12*n+1)-1070/(12*n+5)-131/(12*n+7)"
    "+2/(12*n+11))/(fact(2*n)*fact(12*n)*9^(n+1))"
)
EQ_5_8 = "1/((2*n+1)^2*binom(2*n,n))"
EQ_5_9 = "(40*n^2+54*n+19)/(2*((4*n+1)*(4*n+3))^2*binom(4*n,2*n))"
EQ_5_10 = (
    "(6804*n^4+17172*n^3+15903*n^2+6405*n+956)"
    "/(((6*n+1)*(6*n+3)*(6*n+5))^2*binom(6*n,3*n))"
)

CATALAN_BASE = HypSeriesSpec(
    upper=(F(1), F(1, 2)), lower=(F(3, 2), F(3, 2)), z=F(1, 4)
)


def report(number, description, ok):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_derivation_reproduction():
    ds = solve_seed(SeedIntegral(a=F(-1, 2), b=F(0), p=P([1, F(1, 3)])), 1, 2)
    ok = ds.z == -48 and ds.q == P([-48, 15, -3])

    kummer = solve_seed(SeedIntegral(a=F(-2, 3), b=F(1, 3), p=P([1, 1])), 1, 1)
    ok &= kummer.z == -2 and kummer.q == P([-2, 1])

    gamma13 = solve_seed(
        SeedIntegral(a=F(-1, 3), b=F(-1, 2), p=P([1, F(1, 8)])), 1, 1
    )
    ok &= gamma13.z == -72 and gamma13.q == P([-72, 8])

    fast = solve_seed(SeedIntegral(a=F(-1, 2), b=F(0), p=P([3, 1])), 2, 4)
    ok &= fast.z == 2304
    ok &= fast.seed_p * fast.q == P.constant(fast.z) + expand_kernel(2, 4)
    report(1, "seed solving reproduces (z, Q) exactly for all four seeds", ok)


def test_criterion_2_parameterized_derivation():
    pxw = ParamPolynomial([P([0, 1]), P([-1]), P([1])])
    cubic = solve_seed_param(pxw, 3, 3)
    quintic = solve_seed_param(pxw, 5, 5)
    ok = cubic.z_w == P([0, 0, 0, 1]) and quintic.z_w == P([0, 0, 0, 0, 0, 1])
    # constructor re-checks P*Q == z - kernel identically; assert it again
    kernel3 = ParamPolynomial.from_polynomial(expand_kernel(3, 3))
    ok &= pxw * cubic.q_w == ParamPolynomial((cubic.z_w,)) + kernel3
    kernel5 = ParamPolynomial.from_polynomial(expand_kernel(5, 5))
    ok &= pxw * quintic.q_w == ParamPolynomial((quintic.z_w,)) + kernel5
    report(2, "parameterized solve yields z=w^3 and z=w^5 exactly", ok)


def test_criterion_3_pi_at_rate_log_324():
    result = evaluate_expr(EQ_1_1, 100)
    with mp.workdps(130):
        scale = sqrt_of(mpf(3)) / 60
        pi_ref = pi_machin(120)
        err = abs(result.value * scale - pi_ref)
        # the exact partial sums of the terms the engine used
        partials = partial_sums(expr_terms(EQ_1_1, result.terms_used))
        rate = measured_rate([scale * to_mpf(s) for s in partials], pi_ref)
        ok = err < mpf(10) ** -100
    ok &= result.terms_used <= 45
    ok &= abs(rate - 2.51) <= 0.05
    report(
        3,
        f"pi to 100 digits in {result.terms_used} terms at "
        f"{rate:.3f} digits/term (err {mp.nstr(err, 3)})",
        ok,
    )


def test_criterion_4_five_digits_per_term():
    result = evaluate_expr(EQ_2_11, 60)
    with mp.workdps(90):
        scale = sqrt_of(mpf(3)) / 6**5
        pi_ref = pi_machin(80)
        err = abs(result.value * scale - pi_ref)
        partials = partial_sums(expr_terms(EQ_2_11, result.terms_used))
        rate = measured_rate([scale * to_mpf(s) for s in partials], pi_ref)
        ok = err < mpf(10) ** -60
    ok &= result.terms_used <= 14
    ok &= abs(rate - 5.02) <= 0.05
    report(
        4,
        f"pi to 60 digits in {result.terms_used} terms at "
        f"{rate:.3f} digits/term",
        ok,
    )


def test_criterion_5_binomial_pi_formula():
    report(5, "octuple-binomial series equals pi*2^10*sqrt(3) to 1e-30",
           verify("eq-2.12", digits=30).passed)


def test_criterion_6_series_integral_duality():
    # the exact identity P * Q == z - x^k (1-x)^s makes the kernel form of
    # the integral the seed form, so one quadrature checks both
    x = P.x()
    failures = []
    for record in load_catalog():
        if record.kind != "duality":
            continue
        ds = series_spec_from_dict(record.series)
        kernel = P.constant(ds.z) - x**ds.k * (1 - x) ** ds.s
        outcome = verify(record, digits=30)
        if ds.seed_p * ds.q != kernel or not outcome.passed:
            failures.append(record.id)
    report(
        6,
        "P * Q == z - x^k (1-x)^s exactly, and the series value matches the "
        "quadrature of the seed integral to 30 digits, for all derived "
        f"catalog series ({len(failures)} failures)",
        not failures,
    )


def test_criterion_7_grouping_transform():
    ok = True
    # exact partial-sum equality for n <= 50, m in {2, 3}
    for m in (2, 3):
        grouped = group(CATALAN_BASE, m)
        base_gen = CATALAN_BASE.terms()
        partials = []
        acc = F(0)
        for _ in range(m * 51):
            acc += next(base_gen)
            partials.append(acc)
        gacc = F(0)
        ggen = grouped.terms()
        for n in range(51):
            gacc += next(ggen)
            ok &= gacc == partials[m * (n + 1) - 1]
    # printed right sides match the base left side to 40 digits
    # (each side evaluated with guard digits so its own truncation error
    # sits far below the comparison tolerance)
    base_45 = evaluate_expr(EQ_5_8, 45)
    nine = evaluate_expr(EQ_5_9, 45)
    ten = evaluate_expr(EQ_5_10, 45)
    with mp.workdps(65):
        ok &= abs(nine.value - base_45.value) < mpf(10) ** -40
        ok &= abs(ten.value - 4 * base_45.value) < mpf(10) ** -40
        # measured rate of the grouped form doubles the base rate
        reference = evaluate_expr(EQ_5_8, 70).value
        rates = [
            measured_rate(
                [to_mpf(s) for s in partial_sums(expr_terms(text, result.terms_used))],
                reference,
            )
            for text, result in ((EQ_5_8, base_45), (EQ_5_9, nine))
        ]
        base_rate, nine_rate = rates
    ok &= abs(nine_rate - 2 * base_rate) <= 0.05
    report(
        7,
        f"grouping telescopes exactly; rates {base_rate:.3f} -> "
        f"{nine_rate:.3f} digits/term",
        ok,
    )


def test_criterion_8_gamma_identities():
    failures = [
        i
        for i in (
            "eq-1.2",
            "eq-4.4",
            "eq-4.3-h1-3",
            "eq-4.3-h1-4",
            "eq-4.3-h1-5",
            "eq-5.13",
            "eq-5.14",
        )
        if not verify(i, digits=30).passed
    ]
    report(
        8,
        "gamma-function series match Beta-quadrature references to 30 digits "
        f"({len(failures)} failures)",
        not failures,
    )


def test_criterion_9_catalan():
    report(
        9,
        "central-binomial series equals pi/3 ln(2-sqrt 3) + 8G/3 to 30 digits",
        verify("eq-5.8", digits=30).passed,
    )


def test_criterion_10_oracle_sanity():
    beta_quad = integrate(QuadratureProblem(a=F(-1, 2), b=F(-1, 2)), 30)
    machin_50 = pi_machin(50)
    quad_50 = integrate(QuadratureProblem(a=F(-1, 2), b=F(-1, 2)), 50)
    with mp.workdps(70):
        ok = abs(beta_quad - pi_machin(40)) < mpf(10) ** -30
        ok &= abs(machin_50 - quad_50) < mpf(10) ** -50
    report(10, "Beta(1/2,1/2) = pi to 30 digits; two pi recipes agree to 50", ok)


def test_criterion_11_property_suites():
    rng = random.Random(2024)

    # polynomial divmod round-trip, 1000 random cases
    def rand_poly(allow_zero=True):
        deg = rng.randint(0, 6)
        p = P([F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(deg + 1)])
        return p if (allow_zero or not p.is_zero) else P.one()

    divmod_ok = True
    for _ in range(1000):
        p, d = rand_poly(), rand_poly(allow_zero=False)
        q, r = poly_divmod(p, d)
        divmod_ok &= d * q + r == p and r.degree < d.degree

    # pochhammer multi-section identity, 200 random (a, k, n)
    poch_ok = True
    for _ in range(200):
        a = F(rng.randint(-40, 40), rng.randint(1, 12))
        k = rng.randint(1, 4)
        n = rng.randint(0, 6)
        rhs = F(k) ** (k * n)
        for y in range(k):
            rhs *= pochhammer((a + y) / k, n)
        poch_ok &= pochhammer(a, n * k) == rhs

    # recurrence vs scratch for every catalog series, n <= 20
    recurrence_ok = True
    series_nodes = []
    for record in load_catalog():
        if record.kind == "duality":
            ds = series_spec_from_dict(record.series)
            gen = derived_terms(ds)
            for n in range(21):
                recurrence_ok &= next(gen) == derived_term(ds, n)
        if record.kind == "grouping":
            from betaseries.wire import hyp_spec_from_dict

            base = hyp_spec_from_dict(record.base)
            gen = base.terms()
            for n in range(21):
                recurrence_ok &= next(gen) == hyp_term(base, n)
        for side in (record.lhs, record.rhs):
            series_nodes.extend(_series_leaves(side))

    # tail-bound soundness: +20-digit re-evaluation stays inside the bound
    tail_ok = True
    for node in series_nodes:
        base_value, base_meta = eval_recipe(node, 25)
        sharp_value, _ = eval_recipe(node, 45)
        tail_ok &= abs(base_value - sharp_value) <= base_meta[0].tail_bound

    ok = divmod_ok and poch_ok and recurrence_ok and tail_ok
    report(
        11,
        "1000 divmod round-trips, 200 multi-section identities, "
        f"recurrence-vs-scratch and {len(series_nodes)} tail-soundness checks",
        ok,
    )


def _series_leaves(node):
    """Collect expr/derived/hyp leaves of a recipe tree."""
    if not isinstance(node, dict) or len(node) != 1:
        return []
    (key, arg), = node.items()
    if key in ("expr", "derived", "hyp"):
        return [node]
    leaves = []
    if isinstance(arg, dict):
        leaves.extend(_series_leaves(arg))
    elif isinstance(arg, list):
        for child in arg:
            leaves.extend(_series_leaves(child))
    return leaves


def test_full_catalog_passes_at_record_precision():
    # not a numbered criterion, but the catalog is the artifact's spine:
    # every record must verify at its own declared precision
    from betaseries.catalog import run_all

    summary = run_all()
    failed = [r["id"] for r in summary["records"] if r["status"] != "PASS"]
    print(f"catalog: {summary['passed']}/{summary['total']} records pass")
    assert not failed, f"catalog failures: {failed}"
