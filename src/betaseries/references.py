"""Independent high-precision reference values.

Everything here is computed by classical methods that share nothing with
the series-derivation machinery or with the quadrature: a Machin arctangent
formula for pi, the ``atanh(1/3)`` series for ln 2, Chebyshev-accelerated
alternating summation for Catalan's constant, Newton iteration for roots,
and Beta values by the Gauss series of the incomplete Beta function at
x = 1/2.  Gamma-function combinations are assembled exclusively from Beta
values plus the reflection identity.  Each series has its own short loop
here, so the results depend neither on the term core in ``engine`` nor on
the quadrature they are checked against.  The Beta series is summed on
integers in fixed point, with a rounding bound carried next to each value:
its tail and its rounding are both proven below ``2^-(prec+10)`` of the
sum, and a sum whose rounding bound misses that is redone once, wider.

Computed constants are cached per (name, digits) in ``_cache``, the
process-wide cache of precision-keyed constants.  It is defined in
``quadrature``, which keeps its tanh-sinh node tables there too, so one
``_cache.clear()`` returns the process to the state of a fresh start.  The
lock around its reads and writes does not make concurrent use safe: every
computation here runs at mpmath's global ``mp`` precision, which all threads
share.
"""

from __future__ import annotations

import math
import re
import threading
from fractions import Fraction
from typing import Tuple, Union

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from .polynomials import rational
from .quadrature import _cache

# Nothing here calls the quadrature.  ``integrate`` stays importable from this
# module only because the benchmark's tracer (``bench/layers.py``) patches
# ``references.integrate`` as a layer boundary; remove both together.
from .quadrature import integrate  # noqa: F401

_GUARD = 10
_GUARD_BITS = 32  # of the Beta series over its error budget
_REDO_BITS = 16  # over the measured shortfall, when the Beta series is redone

_cache_lock = threading.Lock()


def _cached(key, digits: int, builder):
    with _cache_lock:
        hit = _cache.get((key, digits))
    if hit is not None:
        return hit
    value = builder()
    with _cache_lock:
        _cache[(key, digits)] = value
    return value


# --------------------------------------------------------------------------
# Root extraction and elementary inverse functions
# --------------------------------------------------------------------------


def nth_root(x: mpf, m: int) -> mpf:
    """Newton iteration for the positive m-th root at current precision."""
    if m < 1:
        raise ValueError("root order must be >= 1")
    if x < 0:
        raise ValueError("nth_root requires a nonnegative argument")
    if x == 0:
        return mpf(0)
    if m == 1:
        return mpf(x)
    # Float seed 2^q (x / 2^(m q))^(1/m), with q = 0 while float(x) is finite
    # and nonzero.  Outside that range x = f 2^e (1/2 <= f < 1) is scaled by
    # q = e // m into [1/2, 2^(m-1)), where float() is exact enough.
    e = mp.frexp(x)[1]
    q = 0 if -1073 <= e <= 1023 else e // m
    y = mp.ldexp(mpf(float(mp.ldexp(x, -m * q)) ** (1.0 / m)), q)
    tol = mpf(2) ** (-(mp.prec - 6))
    for _ in range(60):
        step = (x / y ** (m - 1) - y) / m
        y = y + step
        if abs(step) <= abs(y) * tol:
            break
    return y


def sqrt_of(x: Union[mpf, Fraction, int]) -> mpf:
    if isinstance(x, Fraction):
        x = mpf(x.numerator) / x.denominator
    return nth_root(mpf(x), 2)


def atan_of(x: mpf) -> mpf:
    """Taylor series with argument halving (``x -> x / (1 + sqrt(1+x^2))``)."""
    x = mpf(x)
    doublings = 0
    while abs(x) > mpf(1) / 4:
        x = x / (1 + sqrt_of(1 + x * x))
        doublings += 1
    if x == 0:
        return mpf(0)
    tol = mpf(2) ** (-(mp.prec + 10))
    x2 = x * x
    term = x
    total = mpf(0)
    j = 0
    while abs(term) > tol:
        total += term / (2 * j + 1) * (-1 if j % 2 else 1)
        term *= x2
        j += 1
    return total * 2**doublings


def asin_of(x: mpf) -> mpf:
    x = mpf(x)
    if abs(x) >= 1:
        raise ValueError("asin_of requires |x| < 1")
    return atan_of(x / sqrt_of(1 - x * x))


def ln_of(x: mpf) -> mpf:
    """atanh series for ln with square-root argument reduction."""
    x = mpf(x)
    if x <= 0:
        raise ValueError("ln_of requires a positive argument")
    doublings = 0
    while abs(x - 1) > mpf(1) / 2:
        x = sqrt_of(x)
        doublings += 1
    y = (x - 1) / (x + 1)
    if y == 0:
        return mpf(0)
    tol = mpf(2) ** (-(mp.prec + 10))
    y2 = y * y
    term = y
    total = mpf(0)
    j = 0
    while abs(term) > tol:
        total += term / (2 * j + 1)
        term *= y2
        j += 1
    return total * 2 ** (doublings + 1)


# --------------------------------------------------------------------------
# Named constants
# --------------------------------------------------------------------------


def _atan_inverse_int(c: int) -> mpf:
    """arctan(1/c) by its Taylor series with exact integer denominators."""
    total = mpf(0)
    power = c
    c2 = c * c
    j = 0
    tol = mpf(2) ** (-(mp.prec + 10))
    while True:
        term = mpf(1) / ((2 * j + 1) * power)
        if term < tol:
            break
        total += -term if j % 2 else term
        power *= c2
        j += 1
    return total


def pi_machin(digits: int) -> mpf:
    """pi = 16 arctan(1/5) - 4 arctan(1/239)."""

    def build():
        with mp.workdps(digits + _GUARD):
            return 16 * _atan_inverse_int(5) - 4 * _atan_inverse_int(239)

    return _cached("pi", digits, build)


def ln2_series(digits: int) -> mpf:
    """ln 2 = 2 atanh(1/3) = sum 2 / ((2j+1) 3^(2j+1))."""

    def build():
        with mp.workdps(digits + _GUARD):
            total = mpf(0)
            power = 3
            j = 0
            tol = mpf(2) ** (-(mp.prec + 10))
            while True:
                term = mpf(2) / ((2 * j + 1) * power)
                if term < tol:
                    break
                total += term
                power *= 9
                j += 1
            return total

    return _cached("ln2", digits, build)


def _alternating_cvz(a, n: int) -> mpf:
    """Chebyshev-accelerated alternating sum ``sum (-1)^k a(k)``.

    Standard acceleration for totally monotone term sequences; the error
    decays like ``(3 + sqrt 8)^-n``.
    """
    d = (3 + sqrt_of(mpf(8))) ** n
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    total = mpf(0)
    for k in range(n):
        c = b - c
        total += c * a(k)
        b = b * (k + n) * (k - n) / ((k + mpf(1) / 2) * (k + 1))
    return total / d


def catalan_accelerated(digits: int) -> mpf:
    """Catalan's constant from ``sum (-1)^n / (2n+1)^2``, accelerated.

    Runs the acceleration at two depths and insists on agreement, so a
    returned value is self-validated to the requested precision.
    """

    def build():
        with mp.workdps(digits + _GUARD):
            needed = int((digits + 5) * 2.302585 / 1.7627) + 5

            def term(k: int) -> mpf:
                return mpf(1) / (2 * k + 1) ** 2

            first = _alternating_cvz(term, needed)
            second = _alternating_cvz(term, needed + 12)
            if abs(first - second) > mpf(10) ** (-digits):
                raise ArithmeticError(
                    "catalan acceleration self-check failed"
                )
            return second

    return _cached("catalan", digits, build)


def _gauss_sum(p: Fraction, q: Fraction, bits: int, shift: int) -> Tuple[int, int, int]:
    """``S`` of ``_half_beta`` in units of ``2^-bits``: the partial sum, a
    bound on the tail after it and a bound on its rounding error.

    ``T_n = (1-q)_n / (n! 2^n)`` steps by ``(n - q) / (2n)`` and term ``n``
    is ``T_n / (p + n)``, each rounded down to an integer; ``e`` and
    ``rounding`` carry bounds on the errors so made.  Past ``n >= q`` the
    ratio of consecutive terms lies in [0, 1/2], so the tail after a term is
    no larger than the term: the sum stops at the first such term of at
    most ``2^-shift`` times the partial sum, or whose ``T_n`` is no larger
    than its rounding bound.
    """
    pn, pd = p.numerator, p.denominator
    qn, qd = q.numerator, q.denominator
    t, e = 1 << bits, 0  # T_n and its rounding bound
    total, rounding = 0, 0
    n = 0
    while True:
        d = pn + n * pd
        u, rem = divmod(t * pd, d)
        err = -(-e * pd // d) + (rem != 0)
        total += u
        rounding += err
        if n * qd >= qn and ((abs(u) + err) << shift <= abs(total) or abs(t) <= e):
            return total, abs(u) + err, rounding
        n += 1
        a, b = n * qd - qn, 2 * n * qd
        t, rem = divmod(t * a, b)
        e = -(-e * abs(a) // b) + (rem != 0)


def _half_beta(p: Fraction, q: Fraction) -> mpf:
    """``B_{1/2}(p, q) = 2^-p S``, ``S = sum_n (1-q)_n / (n! (p+n) 2^n)``.

    This is DLMF 8.17.7 at x = 1/2.  ``S`` is summed on integers at
    ``prec + 10 + _GUARD_BITS`` fractional bits (``_gauss_sum``), and both
    the tail and the carried rounding bound must be at most ``2^-(prec+10)``
    times the partial sum.  The terms grow like ``(3/2)^q`` before they
    fall, so for large ``q`` the rounding bound can miss that budget; the
    sum is then done once more with the missing bits and ``_REDO_BITS``
    added, and a second miss raises ``ArithmeticError``.  ``S`` is rounded
    once, to ``_GUARD`` bits past the working precision; ``2^-p`` is a root
    of a power of two.
    """
    shift = mp.prec + 10
    bits = shift + _GUARD_BITS
    for attempt in (1, 2):
        total, tail, rounding = _gauss_sum(p, q, bits, shift)
        lost = max(tail, rounding)
        if lost << shift <= abs(total):
            break
        if attempt == 2:
            raise ArithmeticError(f"Beta series rounding above budget at {bits} bits")
        # a floor on log2 S: S >= max(2^-max(q-1, 0), c^p / 2) / p with
        # c = 1 / max(q-1, 1), and S > 0 is within tail + rounding of the sum
        drop = 2 + math.ceil(p * math.log2(max(q - 1, 1)))
        low = -min(math.ceil(max(q - 1, 0)), drop) - math.ceil(p).bit_length()
        if total > tail + rounding:
            low = max(low, (total - tail - rounding).bit_length() - 1 - bits)
        bits = lost.bit_length() + shift - low + _REDO_BITS
    s = mp.make_mpf(from_rational(total, 1 << bits, mp.prec + _GUARD, round_nearest))
    return nth_root(mp.ldexp(mpf(1), -p.numerator), p.denominator) * s


def beta_value(p: Fraction, q: Fraction, digits: int) -> mpf:
    """Beta(p, q) = B_{1/2}(p, q) + B_{1/2}(q, p), each by its Gauss series."""
    p, q = rational(p), rational(q)
    if p <= 0 or q <= 0:
        raise ValueError("beta_value requires positive parameters")

    def build():
        with mp.workdps(digits + _GUARD):
            return _half_beta(p, q) + _half_beta(q, p)

    return _cached(("beta", p, q), digits, build)


_NAME_RE = re.compile(r"^(?P<fn>[a-z0-9]+)(\((?P<args>[^)]*)\))?$")


def reference(name: str, target_digits: int) -> mpf:
    """Classical reference constant by name.

    Supported: ``pi``, ``ln2``, ``catalan``, ``sqrt(r)`` for rational r,
    and ``beta(p,q)`` for positive rational p, q.
    """
    m = _NAME_RE.match(name.replace(" ", ""))
    if not m:
        raise ValueError(f"unsupported reference name {name!r}")
    fn, args = m.group("fn"), m.group("args")
    if fn == "pi" and args is None:
        return pi_machin(target_digits)
    if fn == "ln2" and args is None:
        return ln2_series(target_digits)
    if fn == "catalan" and args is None:
        return catalan_accelerated(target_digits)
    if fn == "sqrt" and args is not None:
        r = rational(args)
        if r < 0:
            raise ValueError("sqrt of a negative rational")

        def build():
            with mp.workdps(target_digits + _GUARD):
                return sqrt_of(r)

        return _cached(("sqrt", r), target_digits, build)
    if fn == "beta" and args is not None:
        parts = args.split(",")
        if len(parts) != 2:
            raise ValueError("beta(p,q) takes two rational arguments")
        return beta_value(rational(parts[0]), rational(parts[1]), target_digits)
    raise ValueError(f"unsupported reference name {name!r}")


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
        with mp.workdps(inner + _GUARD):
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
