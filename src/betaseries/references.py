"""Independent high-precision reference values.

Everything here is computed by classical methods that share nothing with
the series-derivation machinery, and nothing with the quadrature but the
exact floor integer root ``_iroot``: a Machin arctangent formula for pi,
the ``atanh(1/3)`` series for ln 2, Chebyshev acceleration for Catalan's
constant, integer roots, and Beta values by the Gauss series of the
incomplete Beta function at x = 1/2, whose terms are all positive once both
arguments are reduced into (0, 1] by exact rational factors.
Gamma-function combinations are assembled exclusively from Beta values plus
the reflection identity.  One fixed-point loop on integers, ``_fixed_sum``,
sums the Beta, arctangent and atanh series, with a rounding bound carried
next to each value and one proven stop: the tail after any term of these
series is no larger than the term.  Catalan's acceleration runs on integers
with a proven bound, and roots are integer roots of the mantissa.  Each sum
and root is proven within ``2^-(prec + _GUARD_BITS)`` of itself before it is
rounded once to an mpf; a Beta value is one such sum times one root, and the
Gamma combinations compose such values in mpf arithmetic.

Computed constants are cached per (name, digits) in ``_cache``, the
process-wide cache of precision-keyed constants.  Each fixed-point series
sum is kept there too, keyed by the inputs that define it and its width:
the two series of ``B(u, u)`` are one sum, ``B(1/3, 1/3)`` and
``B(1/3, 4/3)`` at one width share theirs, and an arctangent or atanh
series at a repeated argument is summed once.  ``_cache`` and its keeper
``_kept`` are defined in ``quadrature``, which keeps its tanh-sinh node
and root tables there too, so one ``_cache.clear()`` empties every
precision-keyed table.  Four ``functools`` caches of ``engine`` survive
it: ``derived_core``, ``product_core``, ``_beta_cores`` and
``_leaf_forms``, exact cores and forms that no value depends on; a fresh
start clears them too.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import partial
from typing import Tuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .polynomials import rational
from .quadrature import _iroot, _kept

# Nothing here calls the quadrature or reads ``_cache``.  Both stay importable
# from this module: the tests and the benchmark clear ``references._cache``,
# and the benchmark's tracer (``bench/layers.py``) patches
# ``references.integrate`` as a layer boundary.
from .quadrature import _cache, integrate  # noqa: F401

_GUARD_DIGITS = 10  # past the requested digits, for each named constant
_GUARD_BITS = 10  # past the working precision, for every error bound and rounding
_SPARE_BITS = 32  # of a fixed-point width past its error budget


def _cached(key, digits: int, builder):
    """``builder()`` at ``_GUARD_DIGITS`` past ``digits``, cached per key."""

    def build():
        with mp.workdps(digits + _GUARD_DIGITS):
            return builder()

    return _kept((key, digits), build)


def _rounded(total: int, lost: int, bits: int) -> mpf:
    """``total 2^-bits``, within ``lost`` units of the true value, rounded once
    to ``_GUARD_BITS`` past the working precision; ``ArithmeticError`` unless
    ``lost`` is at most ``2^-(prec + _GUARD_BITS)`` times ``|total|``."""
    prec = mp.prec + _GUARD_BITS
    if lost << prec > abs(total):
        raise ArithmeticError(f"reference error bound above 2^-{prec} of the value")
    return mp.make_mpf(from_man_exp(total, -bits, prec, round_nearest))


def _fixed_sum(t: int, e: int, ratio, weight, shift: int):
    """``sum_n T_n c(n) / d(n)`` in the units of ``t``: the partial sum, a
    bound on the tail after it and a bound on its rounding error.

    ``T_0`` is ``t`` within ``e`` units, ``T_{n+1} = T_n a / (b 2^s)`` for
    ``(a, b, s) = ratio(n + 1)`` and ``(c, d) = weight(n)``, ``b, d > 0``.
    Each product is rounded down, and ``e`` and ``rounding`` carry bounds on
    the errors: ``e <- ceil(e |a| / (b 2^s)) + [inexact]``.  The tail after
    any term must be no larger than the term: the sum stops at the first term
    of at most ``2^-shift`` times the partial sum, or whose ``T_n`` is no
    larger than its rounding bound.
    """
    total = rounding = n = 0
    while True:
        c, d = weight(n)
        u, rem = divmod(t * c, d)
        err = -(-e * abs(c) // d) + (rem != 0)
        total += u
        rounding += err
        if (abs(u) + err) << shift <= abs(total) or abs(t) <= e:
            return total, abs(u) + err, rounding
        n += 1
        a, b, s = ratio(n)
        p = t * a
        t, rem = divmod(p >> s, b)
        e = -(-e * abs(a) // (b << s)) + (rem != 0 or p & ((1 << s) - 1) != 0)


def _odd_series(sign: int, terms, bits: int, shift: int) -> Tuple[int, int]:
    """``sum c f(y/z)`` over ``(c, y, z)`` in ``terms``, with ``f`` arctan for
    ``sign = -1`` and atanh for ``+1``, in units of ``2^-bits``: the sum and
    a bound on its error.

    ``f(x) = sum_n sign^n x^(2n+1) / (2n+1)`` is summed by ``_fixed_sum``
    from ``T_0 = y / z`` by the ratio ``sign y^2 / z^2``, a power of two in
    ``z`` taken by a shift.  With ``|y/z| <= 1/2`` the tail after a term is
    no larger than the term: the arctan terms alternate and fall, and the
    atanh terms fall by at least 4.  Each ``f(y/z)`` is kept in ``_cache``.
    """

    def series(y: int, z: int) -> Tuple[int, int]:
        s = (z & -z).bit_length() - 1
        step = (sign * y * y, (z >> s) ** 2, 2 * s)
        t, rem = divmod(y << bits, z)
        part, tail, rounding = _fixed_sum(
            t, int(rem != 0), lambda n: step, lambda n: (1, 2 * n + 1), shift
        )
        return part, tail + rounding

    total = lost = 0
    for c, y, z in terms:
        part, err = _kept(("odd series", sign, y, z, bits, shift), partial(series, y, z))
        total += c * part
        lost += abs(c) * err
    return total, lost


# --------------------------------------------------------------------------
# Roots and elementary inverse functions
# --------------------------------------------------------------------------


def nth_root(x: mpf, m: int) -> mpf:
    """The positive m-th root: the integer root of the mantissa, shifted so
    that the root has ``_GUARD_BITS + 2`` bits past the working precision."""
    if m < 1:
        raise ValueError("root order must be >= 1")
    x = mpf(x)
    if x < 0:
        raise ValueError("nth_root requires a nonnegative argument")
    if x == 0:
        return mpf(0)
    # x^(1/m) = (man 2^j)^(1/m) 2^-w, with j = exp + m w >= 0 and man 2^j of
    # at least m (prec + _GUARD_BITS + 2) bits; the floored root is 1 unit off
    j = max(m * (mp.prec + _GUARD_BITS + 2) - x.bc, 0)
    w = -((x.exp - j) // m)
    return _rounded(_iroot(x.man << (x.exp + m * w), m), 1, w)


def sqrt_of(x: mpf) -> mpf:
    return nth_root(x, 2)


def _atan(y: int, bits: int, error: int, halvings: int) -> mpf:
    """``2^halvings atan(y 2^-bits)`` for ``y`` within ``error`` units, by
    ``_odd_series`` at a dyadic argument of at most 1/4, reached by halvings
    ``y -> y / (1 + sqrt(1 + y^2))`` on integers."""
    one = 1 << bits
    while abs(y) << 2 > one:
        # the two floors move y by under 2 units, and dy'/dy <= 1/2
        y = (y << bits) // (one + math.isqrt(one * one + y * y))
        error = (error + 1) // 2 + 2
        halvings += 1
    total, lost = _odd_series(-1, [(1, y, one)], bits, mp.prec + _GUARD_BITS + 1)
    return _rounded(total, lost + error, bits - halvings)


def _fixed(x: mpf) -> Tuple[int, int]:
    """``(X, bits)`` with ``x = X 2^-bits`` exactly and ``bits`` wide enough
    for ``|atan x| >= |x| / 2 > 2^(exp + bc - 2)`` past the error budget."""
    bits = max(mp.prec + _GUARD_BITS + _SPARE_BITS - min(x.exp + x.bc, 0), -x.exp)
    return to_fixed(x._mpf_, bits), bits


def atan_of(x: mpf) -> mpf:
    return _atan(*_fixed(mpf(x)), 0, 0)


def asin_of(x: mpf) -> mpf:
    """``asin x = 2 atan(x / (1 + sqrt(1 - x^2)))``, the quotient on integers."""
    x = mpf(x)
    if abs(x) >= 1:
        raise ValueError("asin_of requires |x| < 1")
    big, bits = _fixed(x)
    one = 1 << bits
    y, rem = divmod(big << bits, one + math.isqrt(one * one - big * big))
    # the isqrt is within a unit of its root, which moves y by under |x| units
    return _atan(y, bits, (big != 0) + (rem != 0), 1)


def ln_of(x: mpf) -> mpf:
    """``ln x = 2 atanh((m-1)/(m+1)) + 2 e atanh(1/3)`` for ``x = m 2^e``
    with ``m`` in [2/3, 4/3), by ``_odd_series``.

    ``(m-1)/(m+1)`` lies in [-1/5, 1/7) and is rounded down once to a
    dyadic of ``bits`` fractional bits, so its series steps by shifts.
    ``atanh' <= 25/24`` there: the rounding moves ``2 atanh`` by under 3
    units.  ``atanh(1/3)`` is summed at its exact argument.
    """
    x = mpf(x)
    if x <= 0:
        raise ValueError("ln_of requires a positive argument")
    man, j = x.man, x.bc  # x = (man / 2^j) 2^e
    if 3 * man < 2 << j:
        j -= 1
    e = x.exp + j
    y, z = man - (1 << j), man + (1 << j)
    shift = mp.prec + _GUARD_BITS
    bits = shift + _SPARE_BITS + z.bit_length() - abs(y).bit_length()
    u, rem = divmod(y << bits, z)
    terms = [(2, u, 1 << bits), (2 * e, 1, 3)] if e else [(2, u, 1 << bits)]
    # |ln m| + |e| ln 2 is below 4 |ln x|: 2^-(shift + 3) per part suffices
    total, lost = _odd_series(1, terms, bits, shift + 3)
    return _rounded(total, lost + 3 * (rem != 0), bits)


# --------------------------------------------------------------------------
# Named constants
# --------------------------------------------------------------------------


def _odd_constant(key: str, digits: int, sign: int, terms) -> mpf:
    def build():
        shift = mp.prec + _GUARD_BITS
        bits = shift + _SPARE_BITS
        return _rounded(*_odd_series(sign, terms, bits, shift + 1), bits)

    return _cached(key, digits, build)


def pi_machin(digits: int) -> mpf:
    """pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    return _odd_constant("pi", digits, -1, [(16, 1, 5), (-4, 1, 239)])


def ln2_series(digits: int) -> mpf:
    """ln 2 = 2 atanh(1/3) = sum 2 / ((2j+1) 3^(2j+1))."""
    return _odd_constant("ln2", digits, 1, [(2, 1, 3)])


def catalan_accelerated(digits: int) -> mpf:
    """Catalan's constant ``G = sum (-1)^k / (2k+1)^2``, by the Chebyshev
    acceleration of Cohen, Rodriguez Villegas and Zagier (Exp. Math. 9,
    2000) on integers.

    ``1 / (2k+1)^2`` are the moments of a positive measure on [0, 1], so
    ``S_n = sum_k c_k / ((2k+1)^2 d_n)``, with ``d_n = T_n(3)`` and the
    integer coefficients ``b_k``, ``c_k`` of ``T_n(1 - 2x)``, has ``|G - S_n|
    <= G / d_n``.  ``n`` is the first with ``d_n`` past twice the error
    budget; each term is rounded down at ``_SPARE_BITS`` fractional bits.
    """

    def build():
        shift = mp.prec + _GUARD_BITS
        n, d_prev, d = 1, 1, 3
        while d >> (shift + 1) == 0:
            n, d_prev, d = n + 1, d, 6 * d - d_prev
        b, c, s = -1, -d, 0
        for k in range(n):
            c = b - c
            s += (c << _SPARE_BITS) // (2 * k + 1) ** 2
            b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
        bits = shift + _SPARE_BITS
        # G <= 1 bounds G / d_n; s is below the exact sum by under n
        lost = ((1 << bits) + (n << shift)) // d + 2
        return _rounded((s << shift) // d, lost, bits)

    return _cached("catalan", digits, build)


def _rising(x: int, m: int, d: int) -> int:
    """``prod_{i<m} (x + i d)``, multiplied as a balanced tree: the halves are
    alike in size, so big products stay fast."""
    if m < 32:
        return math.prod(range(x, x + m * d, d))
    return _rising(x, m // 2, d) * _rising(x + m // 2 * d, m - m // 2, d)


def beta_value(p: Fraction, q: Fraction, digits: int) -> mpf:
    """``B(p, q) = r 2^-(p'+q') (S(p', q') + S(q', p'))`` for positive
    rationals, ``p' = p - j`` and ``q' = q - k`` in (0, 1] and the exact
    ``r = (p')_j (q')_k / (p'+q')_{j+k}``, a ratio of integer products.

    ``2^-(u+v) S(u, v)``, ``S(u, v) = sum_n (u+v)_n / ((u+1)_n 2^n) / u``, is
    ``B_{1/2}(u, v)`` (DLMF 8.17.8).  For ``u, v <= 1`` the term ratio
    ``(u+v+n) / (2 (u+1+n))`` is at most 1/2: the tail after any term is no
    larger than the term, and one width always suffices.  Each ``S`` is
    kept in ``_cache`` per ``(u, v)`` and width, so ``S(u, u)`` is summed
    once.
    """
    p, q = rational(p), rational(q)
    if p <= 0 or q <= 0:
        raise ValueError("beta_value requires positive parameters")
    j, k, d = math.ceil(p) - 1, math.ceil(q) - 1, math.lcm(p.denominator, q.denominator)
    a, b = int((p - j) * d), int((q - k) * d)  # p' = a / d, q' = b / d
    s = Fraction(a + b, d)

    def series(c: int, bits: int) -> Tuple[int, int]:
        """``2^bits S(c/d, (a+b-c)/d)`` and a bound on its error."""
        t, rem = divmod(d << bits, c)
        step = lambda n: (a + b + (n - 1) * d, 2 * (c + n * d), 0)
        part, tail, rounding = _fixed_sum(
            t, int(rem != 0), step, lambda n: (1, 1), bits - _SPARE_BITS + 1
        )
        return part, tail + rounding

    def build():
        bits = mp.prec + _GUARD_BITS + _SPARE_BITS
        total = lost = 0
        for c in (a, b):
            part, err = _kept(("beta series", c, a + b, d, bits), partial(series, c, bits))
            total, lost = total + part, lost + err
        # r = (a/d)_j (b/d)_k / ((a+b)/d)_{j+k}: the powers of d cancel
        num, den = _rising(a, j, d) * _rising(b, k, d), _rising(a + b, j + k, d)
        # r <= 1, as B falls in each argument; scaled by 2^x, r total >= total / 2
        x = den.bit_length() - num.bit_length()
        total, rem = divmod(total * num << x, den)
        lost = -(-(lost * num << x) // den) + (rem != 0)
        root = nth_root(mp.ldexp(mpf(1), -s.numerator), s.denominator)
        return root * _rounded(total, lost, bits + x)

    return _cached(("beta", p, q), digits, build)


# --------------------------------------------------------------------------
# Gamma-function combinations via Beta values
# --------------------------------------------------------------------------


def gamma_combination(tag: str, target_digits: int) -> mpf:
    """Gamma products assembled from Beta values and reflection.

    * ``G13cubed``: Gamma(1/3)^3 = B(1/3, 1/3) * 2 pi / sqrt 3
    * ``G14sq``:    Gamma(1/4)^2 = B(1/4, 1/4) * sqrt(pi)
    * ``G34sq``:    Gamma(3/4)^2 = 2 pi^2 / Gamma(1/4)^2   (reflection)
    * ``kummer(h)``: sqrt(pi) Gamma(2-2h) Gamma(h) / (2 Gamma(3/2 - h)),
      rewritten as ``pi * B(h, 2-2h) / (2 B(1/2, 3/2 - h))`` so only Beta
      values and pi are needed; requires 0 < h < 1.
    """
    tag = tag.replace(" ", "")
    digits = target_digits
    inner = digits + 5  # sub-references carry guard digits for the compositions

    def build():
        with mp.workdps(inner + _GUARD_DIGITS):
            if tag == "G13cubed":
                third = Fraction(1, 3)
                return (
                    beta_value(third, third, inner)
                    * 2
                    * pi_machin(inner)
                    / sqrt_of(mpf(3))
                )
            if tag == "G14sq":
                quarter = Fraction(1, 4)
                return beta_value(quarter, quarter, inner) * sqrt_of(
                    pi_machin(inner)
                )
            if tag == "G34sq":
                return 2 * pi_machin(inner) ** 2 / gamma_combination(
                    "G14sq", inner
                )
            m = re.match(r"^kummer\((?P<h>[^)]+)\)$", tag)
            if m:
                h = rational(m.group("h"))
                if not (0 < h < 1):
                    raise ValueError("kummer(h) requires 0 < h < 1")
                top = beta_value(h, 2 - 2 * h, inner)
                bottom = beta_value(Fraction(1, 2), Fraction(3, 2) - h, inner)
                return pi_machin(inner) * top / (2 * bottom)
            raise ValueError(f"unsupported gamma combination {tag!r}")

    return _cached(("gamma", tag), digits, build)
