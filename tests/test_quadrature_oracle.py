"""``integrate`` against a frozen copy of its node-by-node predecessor.

``reference_integrate`` computes the transform of every node in mpf, the
node at ``-t`` on its own, and ``x^a (1-x)^b`` as two general mpf powers,
as ``integrate`` did before its fixed-point kernel.  ``integrate`` rounds
differently (it sums integers times ``2^-W``), so the two cannot agree bit
for bit.  Instead every case must lie within a relative ``10^-(d+12)`` of
the reference run at ``2d + 20`` digits or more: 12 of the integrator's 15
guard digits, against a reference whose own error is far below that.  The
plain ``x^a (1-x)^b`` must match ``mp.beta(a+1, b+1)`` to the same
``10^-(d+12)``.  Both checks fail for a kernel that takes square roots of
fixed-point ``x`` for half-integer powers, and for one without guard bits.
``integrate`` itself must return the same bits whatever the tables already
hold: fresh, after other precisions, and after the cache is cleared.  It
integrates ``N/D`` cancelled by their gcd, takes out the exact scale
``c = lead(N) / D(0)`` when ``|c| <= 1``, keeps each value in ``_cache`` and
scales it by ``c``, so a repeated or scaled call evaluates no node, and the
same bits must come back once only the kept values are dropped.  A scale
``|c| > 1`` must not loosen the caller's tolerance.  Every field of a node-table entry must lie
within its stated error of an mpmath value at ``3W`` bits, and an entry must
not depend on the order in which the table was built.

The reference keeps each node's transform, and ``x^a (1-x)^b`` per exponent
pair, between cases at one precision; a kept value has the same bits as a
fresh one, so only the cost of the 420-digit references changes.

Every catalog ``integral`` leaf and every duality seed integral must agree
with its series or closed form to ``10^-d`` at 30, 100 and 300 digits.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from betaseries import quadrature, references
from betaseries.catalog import _quadrature_problem, eval_recipe, load_catalog
from betaseries.engine import evaluate_derived
from betaseries.polynomials import Polynomial, kernel_polynomial
from betaseries.quadrature import (
    GUARD_BITS,
    T_CAP,
    QuadratureError,
    QuadratureProblem,
    integrate,
)
from betaseries.wire import series_spec_from_dict


def _horner(coeffs, x):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


#: ``(prec, t) -> (x, 1 - x, weight)`` of ``reference_integrate``'s nodes
_TRANSFORMS = {}
#: ``(prec, t, a, b) -> x^a (1-x)^b``
_POWERS = {}


def _transform(t):
    """``(x, 1 - x, pi cosh t x (1 - x))`` at the node ``t``, or None at the
    ends, where ``x`` or ``1 - x`` rounds to 0."""
    key = (mp.prec, t)
    if key not in _TRANSFORMS:
        u = mp.pi / 2 * mp.sinh(t)
        if u >= 0:
            em = mp.exp(-2 * u)
            x = 1 / (1 + em)
            omx = em / (1 + em)
        else:
            ep = mp.exp(2 * u)
            x = ep / (1 + ep)
            omx = 1 / (1 + ep)
        if x == 0 or omx == 0:
            _TRANSFORMS[key] = None
        else:
            _TRANSFORMS[key] = x, omx, mp.pi * mp.cosh(t) * x * omx
    return _TRANSFORMS[key]


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
        den_coeffs = tuple(
            mpf(c.numerator) / c.denominator for c in problem.denominator.coeffs
        )

        def node(t):
            transform = _transform(t)
            if transform is None:
                return mpf(0)
            x, omx, weight = transform
            key = (mp.prec, t, a, b)
            if key not in _POWERS:
                _POWERS[key] = x**a * omx**b
            val = _POWERS[key] * _horner(num_coeffs, x) / _horner(den_coeffs, x)
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
    # z - x^k (1-x)^s with (z, k, s) = (-48, 1, 2), expanded
    "kernel": kernel_polynomial(F(-48), 1, 2),
}


def problem(ab, den):
    a, b = ab
    if den == "none":
        return QuadratureProblem(a=a, b=b)
    return QuadratureProblem(
        a=a, b=b, numerator=NUMERATOR, denominator=DENOMINATORS[den]
    )


#: Digits of the one reference value per case: ``2d + 20`` for the largest
#: ``d`` tested, so more than ``2d + 20`` for every smaller one.
REFERENCE_DIGITS = 2 * 200 + 20


@lru_cache(maxsize=None)
def reference_value(problem_):
    return reference_integrate(problem_, REFERENCE_DIGITS)


def assert_matches_reference(problem_, digits):
    ours = integrate(problem_, digits)
    theirs = reference_value(problem_)
    with mp.workdps(REFERENCE_DIGITS):
        assert abs(ours - theirs) <= mpf(10) ** -(digits + 12) * abs(theirs)


@pytest.mark.parametrize("den", sorted(DENOMINATORS))
@pytest.mark.parametrize("ab", EXPONENTS, ids=lambda ab: f"a={ab[0]},b={ab[1]}")
@pytest.mark.parametrize("digits", [10, 30, 100, 200])
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


#: Integrands whose mass sits near an endpoint: below the cut around
#: ``t = 0``, so a level's walk must not stop before it reaches the mass.
ENDPOINT_MASS = [(F(200), F(0)), (F(0), F(200)), (F(1000), F(1, 2))]


@pytest.mark.parametrize(
    "ab", EXPONENTS + ENDPOINT_MASS, ids=lambda ab: f"a={ab[0]},b={ab[1]}"
)
@pytest.mark.parametrize("digits", [30, 100])
def test_plain_powers_match_beta(digits, ab):
    a, b = ab
    value = integrate(problem(ab, "none"), digits)
    with mp.workdps(digits + 20):
        exact = mp.beta(
            mpf(a.numerator) / a.denominator + 1,
            mpf(b.numerator) / b.denominator + 1,
        )
        assert abs(value - exact) <= mpf(10) ** -(digits + 12) * exact


def catalog_integrals():
    """``(id, problem, values)`` of every catalog integral.

    ``values(d)`` lists what the integral must equal to ``10^-d``: the
    series and the closed form, if any, of a duality record, or the right
    side of a record whose left side is an ``integral`` leaf.
    """
    for record in load_catalog():
        if record.kind == "duality":
            ds = series_spec_from_dict(record.series)

            def values(d, ds=ds, rhs=record.rhs):
                found = [evaluate_derived(ds, d + 5).value]
                return found + ([eval_recipe(rhs, d)[0]] if rhs else [])

            seed = QuadratureProblem(a=ds.a, b=ds.b, denominator=ds.seed_p)
            yield record.id, seed, values
        elif record.lhs and "integral" in record.lhs:
            leaf = _quadrature_problem(record.lhs["integral"])
            yield record.id, leaf, lambda d, rhs=record.rhs: [eval_recipe(rhs, d)[0]]


CATALOG_INTEGRALS = list(catalog_integrals())


@pytest.mark.parametrize(
    "case", CATALOG_INTEGRALS, ids=[case[0] for case in CATALOG_INTEGRALS]
)
@pytest.mark.parametrize("digits", [30, 100, 300])
def test_catalog_integrals(digits, case):
    _, problem_, values = case
    value = integrate(problem_, digits)
    expected = values(digits)
    with mp.workdps(digits + 20):
        for v in expected:
            assert abs(value - v) < mpf(10) ** -digits


def test_catalog_integrals_are_covered():
    kinds = {r.id: r.kind for r in load_catalog()}
    ids = [case[0] for case in CATALOG_INTEGRALS]
    assert len(ids) == 16
    assert sum(kinds[i] == "duality" for i in ids) == 11


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


def test_too_few_levels_raise(monkeypatch):
    p = problem((F(-1, 2), F(-1, 2)), "none")
    # a kept value would be returned without a level: the cap acts on a new one
    references._cache.clear()
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureError) as ours:
        integrate(p, 30)
    with pytest.raises(QuadratureError) as theirs:
        reference_integrate(p, 30, max_levels=1)
    assert str(ours.value) == str(theirs.value)


def count_node_calls(monkeypatch):
    """Route ``quadrature._node`` through a counter; returns the call list."""
    calls = []
    real = quadrature._node

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "_node", counting)
    return calls


#: The catalog integrals with ``(x - 2) / (x^2 - x - 2)``, which is
#: ``1 / (x + 1)``.
CANCELLING = [
    problem_
    for _, problem_, _ in CATALOG_INTEGRALS
    if problem_.denominator == Polynomial((-2, -1, 1))
]


@pytest.mark.parametrize("p", CANCELLING, ids=lambda p: f"a={p.a},b={p.b}")
def test_common_factor_is_cancelled(p):
    assert p.numerator == Polynomial((-2, 1))
    reduced = QuadratureProblem(a=p.a, b=p.b, denominator=Polynomial((1, 1)))
    references._cache.clear()
    ours = integrate(p, 35)
    references._cache.clear()
    assert ours._mpf_ == integrate(reduced, 35)._mpf_


def test_cancelling_covers_the_catalog():
    assert len(CANCELLING) == 3


#: ``x^(-1/2) / (x + 3)`` and its multiples ``3 / (x + 3)`` and ``-1 / (x + 3)``,
#: the seeds of eq-2.11-derived and eq-1.1-derived and the reduced eq-2.8
SCALED_FORMS = [
    QuadratureProblem(a=F(-1, 2), b=0, denominator=Polynomial(d))
    for d in ((3, 1), (1, F(1, 3)), (-3, -1))
]


def count_tanh_sinh_calls(monkeypatch):
    """Route ``quadrature._tanh_sinh`` through a counter; returns the call list."""
    calls = []
    real = quadrature._tanh_sinh

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "_tanh_sinh", counting)
    return calls


@pytest.mark.parametrize("digits", [30, 100, 300])
def test_scaled_forms_are_one_integral(monkeypatch, digits):
    calls = count_tanh_sinh_calls(monkeypatch)
    references._cache.clear()
    values = [integrate(p, digits) for p in SCALED_FORMS]
    assert len(calls) == 1
    with mp.workdps(digits + 20):
        # x = u^2 takes out the endpoint singularity
        quad = mp.quad(lambda u: 2 / (u * u + 3), [0, 1])
        assert abs(quad - mp.pi / (3 * mp.sqrt(3))) <= mpf(10) ** -(digits + 15)
        for value, scale in zip(values, (1, 3, -1)):
            assert abs(value - scale * quad) <= mpf(10) ** -(digits + 12) * abs(quad)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
def test_scaled_forms_do_not_depend_on_call_order(order):
    cold = []
    for p in SCALED_FORMS:
        references._cache.clear()
        cold.append(integrate(p, 40)._mpf_)
    references._cache.clear()
    for i in order:
        assert integrate(SCALED_FORMS[i], 40)._mpf_ == cold[i]


def test_scaled_failure_is_not_kept(monkeypatch):
    p = QuadratureProblem(a=F(-1, 2), b=F(-1, 2), numerator=Polynomial((F(2, 3),)))
    references._cache.clear()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "MAX_LEVELS", 1)
        for _ in range(2):
            with pytest.raises(QuadratureError):
                integrate(p, 30)
    assert not [key for key in references._cache if key[0] == "tanh-sinh integral"]
    with mp.workdps(50):
        assert abs(integrate(p, 30) - 2 * mp.pi / 3) <= mpf(10) ** -42


#: ``(N, D, I / ln(1 + 10^-20))`` with ``I`` the integral over [0, 1]: the kept
#: form ``1 / (1 + x/10^20)``, its multiple by ``c = 10^-20``, and its multiple
#: by ``c = 10^20``, which is integrated as it stands
LARGE_SCALES = [
    ((1,), (1, F(1, 10**20)), 10**20),
    ((1,), (10**20, 1), 1),
    ((10**20,), (1, F(1, 10**20)), 10**40),
]


@pytest.mark.parametrize("digits", [20, 30])
def test_large_scale_keeps_the_callers_tolerance(monkeypatch, digits):
    calls = count_tanh_sinh_calls(monkeypatch)
    references._cache.clear()
    for num, den, factor in LARGE_SCALES:
        p = QuadratureProblem(
            a=0, b=0, numerator=Polynomial(num), denominator=Polynomial(den)
        )
        value = integrate(p, digits)
        with mp.workdps(digits + 20):
            exact = factor * mp.log1p(mpf(10) ** -20)
            assert abs(value - exact) <= mpf(10) ** -digits * exact
    assert len(calls) == 2


def test_repeated_call_evaluates_no_node(monkeypatch):
    first = integrate(problem((F(1, 7), F(5, 2)), "kernel"), 50)
    calls = count_node_calls(monkeypatch)
    again = integrate(problem((F(1, 7), F(5, 2)), "kernel"), 50)
    assert again._mpf_ == first._mpf_
    assert not calls
    # the counter sees the nodes of a value not kept yet
    integrate(problem((F(1, 7), F(5, 2)), "kernel"), 51)
    assert calls


def test_failure_is_not_kept(monkeypatch):
    p = problem((F(-1, 2), F(-1, 2)), "none")
    references._cache.clear()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "MAX_LEVELS", 1)
        for _ in range(2):
            with pytest.raises(QuadratureError):
                integrate(p, 30)
    value = integrate(p, 30)
    with mp.workdps(50):
        assert abs(value - mp.pi) <= mpf(10) ** -42


def test_removable_root_is_still_refused():
    # (x - 1/2) / ((x - 1/2)(x + 1)) is 1 / (x + 1) off x = 1/2 only
    with pytest.raises(ValueError, match="root on"):
        QuadratureProblem(
            a=0,
            b=0,
            numerator=Polynomial((F(-1, 2), 1)),
            denominator=Polynomial((F(-1, 2), F(1, 2), 1)),
        )


def test_scaled_removable_root_is_still_refused():
    # 3 (x - 1/2) / (2 (x - 1/2) (x + 1)) is 3 / (2 (x + 1)) off x = 1/2 only
    with pytest.raises(ValueError, match="root on"):
        QuadratureProblem(
            a=0,
            b=0,
            numerator=Polynomial((F(-3, 2), 3)),
            denominator=Polynomial((-1, 1, 2)),
        )


def test_kept_values_dropped_over_warm_tables(monkeypatch):
    p = problem((F(-2, 3), F(1, 3)), "kernel")
    expected = {}
    for digits in (30, 100):
        references._cache.clear()
        expected[digits] = integrate(p, digits)._mpf_
    # warm both precisions' tables, then drop only the kept values
    references._cache.clear()
    integrate(p, 100)
    integrate(problem((F(3), F(2)), "poly"), 30)
    for key in [k for k in references._cache if k[0] == "tanh-sinh integral"]:
        del references._cache[key]
    assert references._cache
    calls = count_node_calls(monkeypatch)
    for digits in (30, 100):
        del calls[:]
        assert integrate(p, digits)._mpf_ == expected[digits]
        assert calls


def true_node(t, w):
    """``(x, 1-x, pi cosh t)`` at ``t`` as mpf values at ``3w`` bits."""
    with mp.workprec(3 * w):
        e = mp.exp(-mp.pi * mp.sinh(t))
        return 1 / (1 + e), e / (1 + e), mp.pi * mp.cosh(t)


@pytest.mark.parametrize("digits, levels", [(20, 4), (105, 4), (305, 4), (1005, 2)])
def test_nodes_are_within_their_error_bounds(digits, levels):
    # x, 1-x and pi cosh t within one unit of 2^-W; the libmp 1-x within two
    # units in the last place of its W + GUARD_BITS bits, down to t = T_CAP
    # where 1-x is about 2^-(7.4 10^6)
    with mp.workdps(digits):
        w = mp.prec + GUARD_BITS
    table = {}
    for level in range(levels + 1):
        # level 0 holds t = 0 .. T_CAP, a finer level only its new odd j
        for j in range(level > 0, (T_CAP << level) + 1, 1 + (level > 0)):
            entry = quadrature._node(table, j, level, w)
            x, omx, pc = true_node(mpf(j) / (1 << level), w)
            with mp.workprec(3 * w):
                for fixed, value in zip(entry[:3], (x, omx, pc)):
                    assert abs(fixed - mp.ldexp(value, w)) <= 1
                man, exp = entry[3][1:3]
                ulp = mp.ldexp(1, int(mp.floor(mp.log(omx, 2))) + 1 - w - GUARD_BITS)
                assert entry[3][3] <= w + GUARD_BITS
                assert abs(mp.ldexp(man, exp) - omx) <= 2 * ulp
    assert T_CAP in table


@pytest.mark.parametrize("digits", [20, 105])
def test_nodes_do_not_depend_on_build_order(digits):
    # t = 1/8 built cold at its own level, from the unreduced 2/16, and
    # after levels 0 to 2 have filled the table and its constants
    with mp.workdps(digits):
        w = mp.prec + GUARD_BITS
    references._cache.clear()
    cold = quadrature._node({}, 1, 3, w)
    references._cache.clear()
    unreduced = quadrature._node({}, 2, 4, w)
    references._cache.clear()
    table = {}
    for level in range(3):
        for j in range(level > 0, (T_CAP << level) + 1, 1 + (level > 0)):
            quadrature._node(table, j, level, w)
    assert 1 / 8 not in table
    assert quadrature._node(table, 1, 3, w) == cold == unreduced


def test_imports_no_derivation_code():
    # the quadrature is an independent check of derived series
    import ast
    import inspect

    from betaseries import quadrature

    tree = ast.parse(inspect.getsource(quadrature))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "derive" not in modules and "expressions" not in modules


def _newton_root(n, m):
    """``floor(n^(1/m))`` by plain Newton from ``2^ceil(bits / m)``, the
    integer root ``references`` used before it moved to ``quadrature``."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 21, 27, 55, 101, 999, 1001])
def test_iroot_is_the_exact_floor(m):
    rng = random.Random(m)
    cases = [1, 2, 3]
    sizes = [1, 2, 5, 39, 40, 41, 53, 80, 120, 320, 321, 1000, 2500, 5000]
    # 1025 bits and more do not fit a float; a float seeds roots of up to
    # 48 m bits, from their top 1000 bits (orders 21 and up)
    sizes += [1001, 1024, 1025, 1100, 40 * m - 1, 40 * m, 40 * m + 1]
    sizes += [48 * m - 1, 48 * m, 48 * m + 1]
    # a multiple of m bits, and 2 above one, at both sides of 1000 bits
    sizes += [c * m + e for c in (1, 30, 60) for e in (0, 2)]
    for bits in sizes:
        cases += [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3)]
        r = rng.getrandbits(max(bits // m, 1)) | 1
        cases += [r**m - 1, r**m, r**m + 1]
    for n in cases:
        if n >= 1:
            root = quadrature._iroot(n, m)
            assert root**m <= n < (root + 1) ** m


@pytest.mark.parametrize("w", [135, 201, 434])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_root_pair_is_the_exact_floor_near_one(q, w):
    # d = 2^w - x for x near 1, the nodes at large t: small d, whose roots
    # of x lie within a few units of 2^w, and d of a quarter and a half of
    # w's bits; the roots of 1-x = d 2^-w alongside
    rng = random.Random(q * w)
    deltas = [0, 1, q - 1, q, 3 * q]
    deltas += [rng.getrandbits(bits) | 1 << bits - 1 for bits in (w // 4, w // 2)]
    for d in deltas:
        omx = from_man_exp(d or 1, -w)  # 1-x as the node entry keeps it
        entry = ((1 << w) - d, d, None, omx)
        rx, romx = quadrature._root_pair({}, 1.0, entry, q, w)
        n = ((1 << w) - d) << (q - 1) * w
        assert rx**q <= n < (rx + 1) ** q
        n = omx[1] << omx[2] + q * w
        assert romx**q <= n < (romx + 1) ** q


@pytest.mark.parametrize("ab", [(F(-4, 5), F(3, 5)), (F(-2, 3), F(1, 3))])
def test_root_tables_are_plain_newton_roots(ab):
    # every root-table integer of a 105-digit integral, against the
    # plain Newton root of the same input: the tables keep their bits
    references._cache.clear()
    integrate(QuadratureProblem(*ab), 105)
    tables = [key for key in references._cache if key[0] == "tanh-sinh roots"]
    assert len(tables) == 1
    _, w, q = tables[0]
    nodes = references._cache[("tanh-sinh nodes", w)]
    for t, (rx, romx) in references._cache[tables[0]].items():
        x, _, _, (_, man, exp, bc) = nodes[t]
        assert rx == _newton_root(x << (q - 1) * w, q)
        s = exp + q * w
        if s + bc > 0:
            assert romx == _newton_root(man << s if s >= 0 else man >> -s, q)
        else:
            assert romx == 0


def _root_leaves(node):
    """Every ``root`` and ``sqrt`` subtree of a recipe tree."""
    if isinstance(node, dict):
        if set(node) <= {"root", "sqrt"}:
            yield node
        for value in node.values():
            yield from _root_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _root_leaves(value)


ROOT_LEAVES = sorted(
    {
        repr(leaf): leaf
        for record in load_catalog()
        for side in (record.lhs, record.rhs)
        for leaf in _root_leaves(side)
    }.items()
)


def test_root_leaves_are_covered():
    orders = {leaf["root"][1] for _, leaf in ROOT_LEAVES if "root" in leaf}
    assert orders == {2, 3, 4, 5}
    assert any("sqrt" in leaf for _, leaf in ROOT_LEAVES)


@pytest.mark.parametrize("leaf", ROOT_LEAVES, ids=[key for key, _ in ROOT_LEAVES])
@pytest.mark.parametrize("digits", [10, 100, 300])
def test_nth_root_keeps_its_bits(monkeypatch, digits, leaf):
    ours = eval_recipe(leaf[1], digits)[0]._mpf_
    monkeypatch.setattr(references, "_iroot", _newton_root)
    assert eval_recipe(leaf[1], digits)[0]._mpf_ == ours


def count_iroot_calls(monkeypatch):
    """Route ``quadrature._iroot`` through a counter; returns the call list."""
    calls = []
    real = quadrature._iroot

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quadrature, "_iroot", counting)
    return calls


@pytest.mark.parametrize("ab", [(F(-2, 3), F(1, 3)), (F(-1, 2), F(-1, 2))])
def test_same_denominator_computes_no_new_root(monkeypatch, ab):
    # the mirror x -> 1-x has the same nodes, and the same orders of root
    a, b = ab
    calls = count_iroot_calls(monkeypatch)
    references._cache.clear()
    integrate(QuadratureProblem(a=a, b=b), 40)
    assert calls
    del calls[:]
    integrate(QuadratureProblem(a=b, b=a), 40)
    assert not calls


def test_integer_powers_compute_no_root(monkeypatch):
    calls = count_iroot_calls(monkeypatch)
    references._cache.clear()
    integrate(problem((F(3), F(2)), "poly"), 40)
    assert not calls
    assert not [key for key in references._cache if key[0] == "tanh-sinh roots"]


def _drop(kind):
    for key in [k for k in references._cache if k[0] == kind]:
        del references._cache[key]


@pytest.mark.parametrize("ab", [(F(-2, 3), F(1, 3)), (F(-3, 4), F(1, 2))])
@pytest.mark.parametrize("digits", [30, 100])
def test_cold_and_warm_root_tables_agree(ab, digits):
    p = problem(ab, "kernel")
    references._cache.clear()
    cold = integrate(p, digits)._mpf_
    # warm tables of the same orders from an integral with more levels
    references._cache.clear()
    integrate(problem(ab, "poly"), digits + 40)
    integrate(problem((ab[1], ab[0]), "none"), digits)
    _drop("tanh-sinh integral")
    assert integrate(p, digits)._mpf_ == cold
    # root tables warm, node tables cold
    _drop("tanh-sinh integral")
    _drop("tanh-sinh nodes")
    assert integrate(p, digits)._mpf_ == cold


#: Exponents whose roots have orders 6 and 7, and integer parts above 1;
#: orders 101 and 27, whose roots take integers of several thousand bits.
ROOT_EXPONENTS = [
    (F(-6, 7), F(2, 7)),
    (F(5, 2), F(7, 3)),
    (F(-1, 6), F(-5, 6)),
    (F(-100, 101), F(0)),
    (F(1, 2), F(-26, 27)),
]


@pytest.mark.parametrize("den", ["none", "poly"])
@pytest.mark.parametrize("ab", ROOT_EXPONENTS, ids=lambda ab: f"a={ab[0]},b={ab[1]}")
@pytest.mark.parametrize("digits", [10, 30, 100])
def test_root_orders_match_reference(digits, ab, den):
    assert_matches_reference(problem(ab, den), digits)
