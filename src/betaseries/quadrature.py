"""Endpoint-singularity-aware quadrature on [0, 1].

Integrands have the shape ``x^a (1-x)^b N(x) / D(x)`` with rational
``a, b > -1`` and two polynomials: a numerator ``N`` and a denominator ``D``
with no root on [0, 1], which an exact root scan checks.  There is no
separate kernel form: the kernel denominator ``z - x^k (1-x)^s`` is the
expanded polynomial ``polynomials.kernel_polynomial(z, k, s)``, and the
root scan rejects it exactly when ``0 <= z <= M(k, s)``, the double root
at ``z = M`` included.

The double-exponential substitution ``x = (1 + tanh((pi/2) sinh t)) / 2``
turns the algebraic endpoint singularities into doubly exponential decay of
the transformed integrand, so the trapezoid rule in ``t`` converges
superlinearly as the step is halved.  Since ``dx/dt = pi cosh t x (1-x)``,
the summand at a node is

    pc * x^(a+1) (1-x)^(b+1) * N(x) / D(x),    pc = pi cosh t,

with the weight ``x (1-x)`` folded into the powers.

Fixed point.  The summands are Python ints: a real ``v`` is held as
``floor(v * 2^W)``, with ``W = mp.prec + GUARD_BITS``.  Everything a node
needs apart from the problem is computed once per ``W`` and kept in that
``W``'s node table: ``x``, ``1-x`` and ``pi cosh t`` as fixed-point ints,
and ``1-x`` once more as a ``libmp`` value with ``W + GUARD_BITS`` bits of
relative precision.  With ``E = exp(-pi sinh t)`` that is ``E / (1+E)``,
and ``x = 1 / (1+E)``: nothing cancels.  Only nodes at ``t >= 0`` are
kept, where ``x`` lies in [1/2, 1] and its fixed-point int has full
relative precision; ``1-x`` falls towards 0, where the int keeps only a
few significant bits, so its roots read the ``libmp`` value.

Node entries.  An entry is built on ints at ``p = W + NODE_GUARD_BITS``
bits, with one exponential.  ``e^t`` and ``e^-t`` are products of
``exp(+-2^k)``, one for each set bit of ``t = j / 2^L`` in lowest terms
(``k`` from ``-L`` to 3); those constants, ``pi`` and ``ln 2`` at ``p``
bits are kept per ``W`` beside the node table, and each is computed on its
own, so an entry depends on ``(t, W)`` only, never on which other entries
the table holds.  Products of them give ``u = pi sinh t`` and
``pi cosh t``.  With ``k, r = divmod(u, ln 2)``, ``E = m 2^-(k+1)``, where
``m = exp(ln 2 - r)`` in (1, 2] comes from ``exp_basecase``, the
fixed-point kernel of ``libmp``'s ``mpf_exp``; so ``u = 5.1e6`` at
``t = T_CAP`` costs no more than ``u = 1``.  Then ``1 / (1+E)`` is one
integer division at ``p`` bits; ``x`` and ``pi cosh t`` are its floor and
the product's floor at ``W`` bits, and ``1-x = m 2^-(k+1) / (1+E)`` is
rounded to nearest at ``W + GUARD_BITS`` bits.  Errors at ``p`` bits: each
``exp(+-2^k)`` is within 2 units; ``e^t < 2^22``, a product of at most
``L + 4`` factors, is within a relative ``3 (L + 4) 2^-p``; so ``u`` is
within ``2^25 (L + 4)`` units, which is the relative error of ``E``,
beside ``m``'s few units (``mpf_exp`` allows its kernel ``2^14``).  With
``NODE_GUARD_BITS = 64`` and ``L <= MAX_LEVELS = 20`` that
is under ``2^-34`` relative: ``x``, ``1-x`` and ``pi cosh t`` are within 1
unit of ``2^-W``, and the ``libmp`` ``1-x``, at ``2^-(W+32)`` relative or
coarser, within 1 unit in its last place, at every ``t`` up to ``T_CAP``.

Roots.  Write ``a + 1 = na/qa`` and ``b + 1 = nb/qb`` in lowest terms.
Then ``x^(a+1) = (x^(1/qa))^na``, and the roots of order ``q`` come from
a table per ``(W, q)`` that maps ``t`` to ``floor(x^(1/q) 2^W)`` and
``floor((1-x)^(1/q) 2^W)``; the node at ``-t`` swaps the pair.  Each
root is an exact floor integer root: of the fixed-point ``x`` shifted by
``(q-1) W``, and of the mantissa of ``1-x`` shifted by ``exp + qW``.
``_iroot`` takes an odd-order root of an integer of at most ``48 q``
bits from the float root of its top 1000 bits, stepped up by ``r**q``
checks if it is below the floor; a larger integer takes the root of its
top half plus one, shifted back, and one Newton step, which lands on the
floor or under a sixteenth of a unit above the root, with no check until
the top level, where one ``r**q`` check usually settles it.  Even orders
take ``math.isqrt`` first.  Entries are filled lazily, and integrals that
share a denominator at one ``W`` share its table: the catalog's 7
distinct integrals with fractional powers need the orders 2 to 5 only.
Integer exponents are the case ``q = 1``, whose roots are ``x`` and
``1-x`` themselves: its root table is the node table, whose entries begin
with them.  So every power takes one path: each root raised to ``na`` or
``nb`` by squaring, with a truncation after each product, and the two
powers multiplied.  No node calls an exponential or a logarithm for its
powers, and the cost grows with ``log(na nb)``.  ``N`` and ``D`` are
scaled by one rational, the least that makes all their coefficients
integers with no common factor (``polynomials.integer_coefficients``), so
the integer forms ``N_int / D_int`` are ``N / D`` exactly.  They are
evaluated by fixed-point Horner, with one integer division per node for
``N/D``; one call gives the summands at ``t`` and ``-t`` added.  A
level's sum over all its nodes is one exact int ``S``, and the level is
``S 2^-(W + level)``, rounded once to an mpf.

Error budget, in units of ``2^-W``.  Per node: each tabled value is within
1; each root is within 2 (a unit of ``x >= 1/2`` moves its root by under
one, and the floor adds one); a root within ``e`` raised to ``n`` by
squaring is within ``(e + 1) n - 1``, as a product of two factors of at
most 1 adds their errors and one truncation, so the power
``x^(a+1) (1-x)^(b+1)`` is within ``3 (na + nb)``; Horner on ``N_int``
and ``D_int`` adds at most ``deg`` truncations plus ``|N_int'|`` or
``|D_int'|`` times the error of ``x``; the division adds 1 plus the
relative errors of ``N_int`` and ``D_int`` times ``|N/D|``.  The relative
error of ``D_int(x)`` is ``(deg + |D_int'|) / |D_int|`` units: the part
``|D_int'| / |D_int|`` does not depend on the scale and grows as a pole
nears [0, 1]; the part ``deg / |D_int|`` does.  Dividing out the content
of ``N`` and ``D`` together can leave ``|D_int|`` smaller than ``D``
scaled on its own (``6 / (2 + 4x)`` is ``3 / (1 + 2x)``), so the
truncations weigh up to that content more.  The final product with
``pc`` scales the sum by ``pc``.  Per level: ``h * sum over nodes``, at most
``2 t_max max(pc * node error)``, with ``t_max`` a few units and ``pc`` up
to ``pi cosh t_max``: a few thousand at 300 digits.
``GUARD_BITS = 32`` (about 9.6 digits) keeps that whole budget below
``2^-mp.prec``, and ``mp.prec`` already carries 15 decimal digits above
the target.

The step is halved (reusing previous nodes) until the level is accepted:
two successive levels agree to ``target_digits + 5``, or the digits have
doubled -- the last difference is at most the previous one to the power
1.8, and its square is at most ``10^-(target_digits + 15)``, the working
precision (the digit-doubling estimate of Bailey, Jeyabalan & Li, 2005, for
the tanh-sinh rule of Takahasi & Mori, 1974).  Differences are relative to
``max(1, |estimate|)``.  The square estimates the error of the level only
roughly: measured errors are the difference to a power between about 1.9
and 2.2.  With a bound of ``10^-(target_digits + 10)`` they reached
``10^-(target_digits + 10.03)``; with the working precision they stay below
``10^-(target_digits + 15)`` in the tests.

Neither rule is a proof: both read the error off the convergence of the
levels.  ``catalog.verify`` compares the quadrature with an independent
series or closed form, so a wrong quadrature value turns a record into a
FAIL; it could hide a wrong series only if both were wrong by the same
amount.  The work is bounded: failure to converge within ``MAX_LEVELS``
halvings, or within ``NODE_BUDGET`` nodes, raises ``QuadratureError``.

Once per process.  ``integrate`` cancels ``N/D``, on one integer scale,
by their primitive gcd and integrates the reduced problem: the catalog's
``(x - 2) / (x^2 - x - 2)`` is ``1 / (x + 1)``.  It then writes ``N/D`` as
``c N'/D'`` with ``N'`` monic and ``D'(0) = 1`` (``D`` has no root at 0),
for the exact rational ``c = lead(N) / D(0)``, and integrates ``N'/D'``
when ``|c| <= 1``: ``1 / (1 + x/3)``, ``1 / (x + 3)`` and ``1 / (-3 - x)``
are one integral, times 1, 1/3 and -1/3.  The level test and the cut read
the kept run's own value, so they hold for ``c`` times it only while
``|c| <= 1``: its differences relative to ``max(1, |S|)`` are then no
larger in the caller's units, and its contributions no larger in
absolute terms.  A problem with ``|c| > 1`` is integrated as it is
reduced, as ``1 / (1 + x/10^20)`` and ``10^20 / (x + 1)`` are.  The root
scan still runs on the ``D`` as given, so a removable root on [0, 1] is
refused.  Each value is kept by ``_kept`` under the problem that was
integrated and ``target_digits``; a call returns ``c`` times it, rounded
once at the working precision, and a repeated or scaled call evaluates no
node.  A raised ``QuadratureError`` is not kept.

Every value a node contributes is the same integer whether its transform
and roots are fresh or read from a table, and a kept value is the one its
normalized problem computes, so results do not depend on what ``_cache``
holds or on the order of the calls.  The node tables with their
constants, the root tables and the kept values live in ``_cache``, the
process-wide cache of precision-keyed constants, and ``_kept`` is its one
keeper: ``references`` keeps its reference sums and values through it
too; a fresh start clears ``_cache`` and ``cores.interned``.  The lock
around ``_kept``'s reads and writes does not make concurrent use safe: every
computation here and in ``references`` runs at mpmath's global ``mp``
precision, which all threads share.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, ldexp
from typing import Tuple

from mpmath import mp, mpf
from mpmath.libmp import (
    from_man_exp,
    from_rational,
    ln2_fixed,
    mpf_shift,
    pi_fixed,
    round_nearest,
)
from mpmath.libmp.libelefun import exp_basecase

from .polynomials import (
    IntPoly,
    Polynomial,
    exact_quotient,
    has_root_on_unit_interval,
    int_gcd,
    integer_coefficients,
    rational,
)

#: Fixed-point bits kept below ``2^-mp.prec`` (see the module docstring).
GUARD_BITS = 32

#: The most integrand nodes one ``integrate`` call evaluates before it
#: raises ``QuadratureError``; the pair at ``+-t`` counts as two.  Catalog
#: integrals need at most 3 217 at 300 digits, so three more levels fit;
#: ``x^0 (1-x)^0 / (x^2 - x + 2501/10000)``, with poles at ``1/2 +- i/100``,
#: needs 16 983 at 20 digits.
NODE_BUDGET = 2**15

#: The most halvings of the step one ``integrate`` call takes before it
#: raises ``QuadratureError``.
MAX_LEVELS = 20

#: Nodes lie in ``|t| <= T_CAP``.
T_CAP = 15

#: Bits past ``W`` of the fixed-point arithmetic that builds a node-table
#: entry (see the module docstring).
NODE_GUARD_BITS = 64

#: Bits that ``_odd_root_above``'s shift ``k`` leaves below half the
#: root's bits, beside the bits of the order, so that its one Newton step
#: per level lands under a sixteenth of a unit above the root.
ROOT_GUARD_BITS = 4


class QuadratureError(ArithmeticError):
    """The level-doubling scheme did not reach the requested agreement."""


@dataclass(frozen=True)
class QuadratureProblem:
    """``int_0^1 x^a (1-x)^b * numerator(x) / denominator(x) dx``."""

    a: Fraction
    b: Fraction
    numerator: Polynomial = Polynomial((1,))
    denominator: Polynomial = Polynomial((1,))

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        if self.a <= -1 or self.b <= -1:
            raise ValueError("need a > -1 and b > -1 for integrability")
        if self.numerator.is_zero:
            raise ValueError("numerator is the zero polynomial")
        if self.denominator.is_zero:
            raise ValueError("denominator is the zero polynomial")
        if has_root_on_unit_interval(self.denominator):
            raise ValueError("denominator has a root on [0, 1]")


#: The process-wide cache of precision-keyed constants: the node tables,
#: root tables and integral values of this module and the reference values
#: of ``references``, which imports it with ``_kept``.
_cache: dict = {}

_cache_lock = threading.Lock()


def _kept(key, compute):
    """``compute()``, kept in ``_cache`` under ``key``; an exception it raises
    is not kept."""
    with _cache_lock:
        hit = _cache.get(key)
    if hit is None:
        hit = compute()
        with _cache_lock:
            _cache[key] = hit
    return hit


def _node_constants(w: int) -> tuple:
    """``(p, pi, ln 2, powers)`` for the node table of ``w``.

    ``p = w + NODE_GUARD_BITS``; ``pi`` and ``ln 2`` are ``floor(v 2^p)``
    (``libmp``'s ``pi_fixed`` and ``ln2_fixed``), and ``powers`` is the dict
    that ``_exp_powers`` fills with ``exp(+-2^k)``.
    """
    p = w + NODE_GUARD_BITS
    return _kept(("tanh-sinh node constants", w), lambda: (p, pi_fixed(p), ln2_fixed(p), {}))


def _exp_powers(powers: dict, k: int, p: int) -> Tuple[int, int]:
    """``(floor(exp(2^k) 2^p), floor(exp(-2^k) 2^p))``, kept in ``powers``.

    Each pair is computed on its own, 32 bits finer: ``exp_basecase`` of
    ``+-2^min(k, 0)``, within ``2^14`` units (the margin ``mpf_exp`` gives
    it), squared ``k`` times for ``k > 0`` (``T_CAP`` needs ``k <= 3``), so
    each value is within 2 units.
    """
    pair = powers.get(k)
    if pair is None:
        q = p + 32
        x = 1 << (q + min(k, 0))
        ep, em = exp_basecase(x, q), exp_basecase(-x, q)
        for _ in range(k):
            ep, em = ep * ep >> q, em * em >> q
        pair = powers[k] = ep >> 32, em >> 32
    return pair


def _node(table: dict, j: int, level: int, w: int) -> tuple:
    """``(x, 1-x, pi cosh t, 1-x)`` at ``t = j / 2^level >= 0``.

    The first three are ints, ``floor(v * 2^w)`` within 1 unit; the last is
    a ``libmp`` value with ``w + GUARD_BITS`` bits of relative precision,
    within 1 unit in its last place, which ``_root_pair`` reads.  ``table``
    is the node table of ``w``, keyed by ``float(t)`` (exact).

    All of it is fixed point at ``p = w + NODE_GUARD_BITS`` bits (see the
    module docstring).  ``e^t`` and ``e^-t`` are products of ``exp(+-2^k)``,
    one for each set bit of ``t`` in lowest terms, so the entry depends on
    ``(t, w)`` only.  With ``u = pi sinh t`` and ``k, r = divmod(u, ln 2)``,
    ``E = exp(-u) = m 2^-(k+1)``, where ``m = exp(ln 2 - r)`` in (1, 2] is
    the entry's one exponential; then ``x = 1 / (1+E)`` and
    ``1-x = E / (1+E)``, so nothing cancels.
    """
    key = j / (1 << level)
    entry = table.get(key)
    if entry is None:
        p, pi, ln2, powers = _node_constants(w)
        while level and not j & 1:
            j, level = j >> 1, level - 1
        ep = em = None
        for bit in range(j.bit_length()):
            if j >> bit & 1:
                cp, cm = _exp_powers(powers, bit - level, p)
                ep, em = (cp, cm) if ep is None else (ep * cp >> p, em * cm >> p)
        if ep is None:  # t = 0
            ep = em = 1 << p
        k, r = divmod(pi * (ep - em) >> (p + 1), ln2)
        m = exp_basecase(ln2 - r, p)
        y = (1 << 2 * p) // ((1 << p) + (m >> (k + 1)))  # 1 / (1+E)
        omx = m * y  # (1-x) 2^(2p + k + 1)
        s = omx.bit_length() - (w + GUARD_BITS)
        x = y >> (p - w)
        entry = table[key] = (
            x,
            (1 << w) - x,
            pi * (ep + em) >> (2 * p + 1 - w),
            from_man_exp((omx >> (s - 1)) + 1 >> 1, s - 2 * p - k - 1),
        )
    return entry


def _iroot(n: int, m: int) -> int:
    """``floor(n^(1/m))`` for ``n >= 1``.

    Even orders take ``math.isqrt`` first, which is exact:
    ``floor(floor(n^(1/2))^(1/k)) = floor(n^(1/(2k)))``.  An odd order
    starts from ``_odd_root_above``, at least the floor root and usually
    on it, and ``x**m`` checks step it down to the floor.
    """
    while m % 2 == 0:
        n, m = isqrt(n), m // 2
    if m == 1:
        return n
    x = _odd_root_above(n, m)
    while x**m > n:
        x -= 1
    return x


def _odd_root_above(n: int, m: int) -> int:
    """An integer at least ``floor(n^(1/m))`` and under an eighth of a unit
    above ``n^(1/m)``, for odd ``m`` and ``n >= 1``.

    An ``n`` of at most ``48 m`` bits, whose root a float holds with room,
    takes the float root of its top 1000 bits ``n >> s`` (floats end at
    ``2^1024``) times ``2^(s/m)``: within a few units in the float's last
    place, so under an eighth of a unit of the root.  ``x**m`` checks step
    it up to the floor root if it is below.  A larger ``n`` starts from the
    result for ``n >> m k``, plus one, shifted back: at least the root, and
    above it by under ``(9/8) 2^k``.  One Newton step from any start lands
    on or above the floor root (by AM-GM), and from ``e`` above the root
    lands within ``(m-1) e^2 / (2 root)`` of it: with ``ROOT_GUARD_BITS``
    and the bits of ``m`` taken off ``k``, under ``(81/64) 2^(1/m - 5)``
    units, less than a sixteenth.  No level checks its Newton step, as the
    next one needs only a start above the root; a float root worse than
    stated would cost more checks in ``_iroot``, never a wrong root.
    """
    bits = n.bit_length()
    if bits <= 48 * m:
        s = max(bits - 1000, 0)
        e, r = divmod(s, m)
        x = int(ldexp(float(n >> s) ** (1 / m) * 2 ** (r / m), e))
        while (x + 1) ** m <= n:
            x += 1
        return x
    k = (bits // m - ROOT_GUARD_BITS - m.bit_length()) // 2
    x = (_odd_root_above(n >> m * k, m) + 1) << k
    return ((m - 1) * x + n // x ** (m - 1)) // m


def _root_pair(table: dict, t: float, entry: tuple, q: int, w: int) -> Tuple[int, int]:
    """``(floor(x^(1/q) 2^w), floor((1-x)^(1/q) 2^w))`` for the node
    ``entry`` at ``t >= 0``; ``table`` is the root table of ``(w, q)``,
    keyed like the node table.  Order 1 has no table of its own: its roots
    are the entry's own ``x`` and ``1-x``, so its table is the node table,
    which holds ``entry`` at ``t`` already.

    The root of ``x`` is that of the fixed-point int, as ``x >= 1/2``; the
    root of ``1-x`` is the floor root of the ``libmp`` mantissa shifted by
    ``exp + q w``.  A right shift loses nothing, as the floor root of the
    floor of a number is the floor root of the number.
    """
    pair = table.get(t)
    if pair is None:
        _, man, exp, bc = entry[3]
        s = exp + q * w
        if s + bc <= 0:
            omx = 0
        else:
            omx = _iroot(man << s if s >= 0 else man >> -s, q)
        pair = table[t] = _iroot(entry[0] << (q - 1) * w, q), omx
    return pair


def _fixed_power(v: int, n: int, w: int) -> int:
    """``(v 2^-w)^n 2^w`` for ``0 <= v <= 2^w`` and ``n >= 1``, by squaring
    with a truncation after each product.  If ``v`` is within ``e`` units,
    the power is within ``(e + 1) n - 1``: a product of two factors of at
    most 1 adds their errors and one truncation."""
    r = None
    while True:
        if n & 1:
            r = v if r is None else r * v >> w
        n >>= 1
        if not n:
            return r
        v = v * v >> w


def _fixed_horner(coeffs: Tuple[int, ...], x: int, w: int, scale: int = 1) -> int:
    """``scale`` times the polynomial at the fixed-point ``x``, within
    ``len(coeffs)`` units of the polynomial, for ``coeffs`` highest degree
    first: the leading one as it is and the others times ``2^w``.  The first
    product ``c_d x`` needs no shift, and a constant ``c`` gives ``(scale c)
    2^w``: neither multiplies by a full-width ``c 2^w``."""
    if len(coeffs) == 1:
        return scale * coeffs[0] << w
    acc = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        acc = (acc * x >> w) + c
    return scale * acc


def integrate(problem: QuadratureProblem, target_digits: int) -> mpf:
    """Value of the integral, correct to ``target_digits`` decimal digits.

    The problem is integrated with ``N/D`` cancelled by ``gcd(N, D)``, and
    with the exact scale ``c = lead(N) / D(0)`` taken out when ``|c| <= 1``,
    once per process: that value is kept in ``_cache``, and ``c`` is applied
    with one rounding (see the module docstring).

    The rule works at ``target_digits + 15`` digits, its fixed-point
    summands ``GUARD_BITS`` below that (see the module docstring for the
    representation and the error budget).  A level is accepted when it
    agrees with the previous one to ``target_digits + 5`` digits, or when
    the digits have doubled: ``|S_k - S_{k-1}| <= |S_{k-1} - S_{k-2}|^1.8``
    and ``|S_k - S_{k-1}|^2 <= 10^-(target_digits + 15)``, differences
    relative to ``max(1, |S_k|)``.  Neither rule proves the digits; they
    read the error off the convergence.  Raises ``QuadratureError`` after
    ``MAX_LEVELS`` halvings of the step or ``NODE_BUDGET`` nodes.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    forms = integer_coefficients(problem.numerator.coeffs, problem.denominator.coeffs)
    g = int_gcd(*forms)
    numerator, denominator = (exact_quotient(p, g) for p in forms)
    # N/D = c N'/D' with N' monic and D'(0) = 1 (D has no root at 0), taken
    # out only for |c| <= 1, where the rule on N'/D' is the stricter one
    scale = Fraction(numerator[-1], denominator[0])
    if abs(scale) <= 1:
        numerator, denominator = integer_coefficients(
            [Fraction(c, numerator[-1]) for c in numerator],
            [Fraction(c, denominator[0]) for c in denominator],
        )
    else:
        scale = 1
    args = (problem.a, problem.b, numerator, denominator, target_digits)
    value = _kept(("tanh-sinh integral",) + args, lambda: _tanh_sinh(*args))
    if scale == 1:
        return value
    man, exp = value.man_exp
    with mp.workdps(target_digits + 15):
        scaled = from_rational(
            man * scale.numerator, scale.denominator, mp.prec, round_nearest
        )
        return mp.make_mpf(mpf_shift(scaled, exp))


def _tanh_sinh(
    a: Fraction,
    b: Fraction,
    numerator: IntPoly,
    denominator: IntPoly,
    target_digits: int,
) -> mpf:
    """The level-halving rule of ``integrate`` on ``x^a (1-x)^b N/D``."""
    wp = target_digits + 15
    with mp.workdps(wp):
        w = mp.prec + GUARD_BITS
        nodes = _kept(("tanh-sinh nodes", w), dict)
        # x^(a+1) = (x^(1/qa))^na with na / qa = a + 1, and alike for 1-x
        qa, na = (a + 1).denominator, (a + 1).numerator
        qb, nb = (b + 1).denominator, (b + 1).numerator
        # order 1 reads its roots, x and 1-x, off the node entries themselves
        roots_a, roots_b = (
            _kept(("tanh-sinh roots", w, q), dict) if q > 1 else nodes
            for q in (qa, qb)
        )
        # N/D with one integer scale, highest degree first, all but the
        # leading coefficient times 2^w (see _fixed_horner)
        ncoeffs, dcoeffs = (
            (form[-1], *(c << w for c in reversed(form[:-1])))
            for form in (numerator, denominator)
        )

        def powers(pair: tuple, n: int) -> tuple:
            """A root pair ``(x^(1/q), (1-x)^(1/q))`` (order 1: a node entry,
            which begins with ``x`` and ``1-x``) raised to ``n``, read as it is
            for ``n = 1``."""
            x, omx = pair[:2]
            return (x, omx) if n == 1 else (_fixed_power(x, n, w), _fixed_power(omx, n, w))

        def pair_summand(x: int, omx: int, ra: tuple, rb: tuple) -> int:
            """The summands at ``t`` and ``-t`` added, from ``x``, ``1-x`` and
            the root pairs ``(x^(1/q), (1-x)^(1/q))`` of orders ``qa`` and
            ``qb``: ``x^(a+1) (1-x)^(b+1) N(x) / D(x)``, and the same with
            ``x`` and ``1-x`` swapped.  A root of 0 in place of ``ra[1]``
            makes the one at ``-t`` 0."""
            (xa, oa), (xb, ob) = powers(ra, na), powers(rb, nb)
            p = _fixed_horner(ncoeffs, x, w, xa * ob >> w) // _fixed_horner(dcoeffs, x, w)
            pm = _fixed_horner(ncoeffs, omx, w, oa * xb >> w) // _fixed_horner(dcoeffs, omx, w)
            return p + pm

        # |contribution| * 2^-w < 10^-(wp + 5), on integers
        cut = -(-(1 << w) // 10 ** (wp + 5))
        agree_tol = mpf(10) ** (-(target_digits + 5))
        doubling_tol = mpf(10) ** -wp
        evaluated = 0

        def pair_sum(level: int, start: int, step: int) -> int:
            """Sum over j = start, start+step, ... of the nodes at +-j/2^level.

            The node at -t is the node at t with x and 1-x (and their
            roots) swapped.  Entries and root pairs are read from their
            tables; ``_node`` and ``_root_pair`` run only on a miss.  The
            walk stops after three small contributions in a row once one
            above the cut has been met.
            """
            nonlocal evaluated
            total = 0
            small, seen = 0, False
            j = start
            while j <= T_CAP << level:
                evaluated += 2
                if evaluated > NODE_BUDGET:
                    raise QuadratureError(
                        f"no convergence to {target_digits} digits within the "
                        f"quadrature budget of {NODE_BUDGET} nodes"
                    )
                t = j / (1 << level)
                entry = nodes.get(t) or _node(nodes, j, level, w)
                ra = roots_a.get(t) or _root_pair(roots_a, t, entry, qa, w)
                rb = roots_b.get(t) or _root_pair(roots_b, t, entry, qb, w)
                contrib = entry[2] * pair_summand(entry[0], entry[1], ra, rb) >> w
                total += contrib
                if abs(contrib) >= cut:
                    seen, small = True, 0
                elif seen:
                    small += 1
                    if small >= 3:
                        break
                j += step
            return total

        def level_value(total: int, level: int) -> mpf:
            """``2^-level`` times the level's sum, as one rounded mpf."""
            return mp.make_mpf(from_man_exp(total, -(w + level), mp.prec, round_nearest))

        # the node at t = 0 is counted once: a root of 0 drops its mirror
        entry = _node(nodes, 0, 0, w)
        ra = _root_pair(roots_a, 0.0, entry, qa, w)[0], 0
        rb = _root_pair(roots_b, 0.0, entry, qb, w)
        center = pair_summand(entry[0], entry[1], ra, rb)
        total = (entry[2] * center >> w) + pair_sum(0, 1, 1)
        evaluated += 1
        estimate = level_value(total, 0)
        previous = last_diff = None
        for level in range(MAX_LEVELS):
            if previous is not None:
                diff = abs(estimate - previous) / max(mpf(1), abs(estimate))
                doubled = last_diff is not None and diff <= last_diff**1.8
                if diff <= agree_tol or (doubled and diff * diff <= doubling_tol):
                    return estimate
                last_diff = diff
            previous = estimate
            total += pair_sum(level + 1, 1, 2)
            estimate = level_value(total, level + 1)
        raise QuadratureError(
            f"no convergence to {target_digits} digits after {MAX_LEVELS} levels"
        )
