"""Arbitrary-precision series evaluation with proven error bounds.

Derived, hypergeometric, grouped and printed series all compile onto one
term core, ``HypTerms``, whose ratio ``N(n) / D(n)`` and weight
``A(n) / B(n)`` are integer polynomials built once per core.

``sum_terms`` is the one summation loop, in fixed point at ``W`` bits: each
core steps ``T <- T N(n) // D(n)`` and adds ``T A(n) // B(n)`` to ``S``,
with integer rounding bounds in units of ``2^-W``, ``E <- ceil(E |N| / |D|)
+ 1`` for ``T`` and ``ceil(E |A| / |B|) + 1`` added to ``E_S`` (each ``+ 1``
only for an inexact division; one unit more rounds ``prefactor S / 2^W``
once to an mpf).  Summation stops at the first ``N`` where the tail bound
proven from the core (``HypTerms.tail_forms``) plus ``E_S``, times
``|prefactor| 2^-W``, is below ``10^-target_digits``: that sum, rounding
included, is ``EvalResult.tail_bound``.

``W`` is the bit length of ``10^target_digits max(1, |prefactor|)`` plus
``GUARD_BITS``.  Where ``E_S`` exceeds half the budget, as when the terms
grow for a long stretch (``(200)_n / n! 3^-n``), the sum is redone once
with the missing bits; ``E_S`` does not grow with ``W``, so a second miss
is an ``EvaluationError``.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from mpmath import iv, mp, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_add, mpf_sub
from mpmath.libmp import round_nearest, round_up, to_rational

from .derive import DerivedSeries
from .expressions import Product, TermExpr, parse_term_expr
from .polynomials import (
    Polynomial,
    horner,
    integer_coefficients,
    integer_forms,
    quotient,
)

# Unused here: the benchmark's tracer (``bench/layers.py``) patches these as
# layer boundaries; remove them together with those patches.
from .derive import weight_values  # noqa: F401
from .expressions import evaluate as expr_value  # noqa: F401

#: fixed-point bits beyond the target; the rounding bound must fit in them
GUARD_BITS = 64

DEFAULT_MAX_TERMS = 100_000

#: integer coefficients, lowest degree first, of ``A`` and ``B`` in ``A / B``
IntegerForm = Tuple[Tuple[int, ...], Tuple[int, ...]]


class EvaluationError(ArithmeticError):
    """Series evaluation could not reach the requested accuracy."""


class SeriesDivergenceError(EvaluationError):
    """The term ratio tends to a limit above 1."""


def to_mpf(x: Union[Fraction, int, float, mpf]) -> mpf:
    """Round an exact rational (or number) to an mpf at the current precision."""
    return mpf(x.numerator) / mpf(x.denominator) if isinstance(x, Fraction) else mpf(x)


def _rounded(num: int, den: int, prec: int, rnd=round_nearest) -> mpf:
    """``num / den`` rounded once to ``prec`` bits."""
    return mp.make_mpf(from_rational(num, den, prec, rnd))


def _from_fixed(pref: Fraction, s: int, w: int) -> mpf:
    """``pref * s / 2^w`` rounded once, within ``|pref| 2^-w`` of it."""
    return _rounded(pref.numerator * s, pref.denominator << w, max(w, s.bit_length()))


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a series evaluation.

    ``tail_bound`` bounds ``|value - prefactor * sum|``: the tail, every
    rounding and an interval prefactor's radius.  ``measured_rate`` is the
    digits-per-term slope fitted over the trailing half of the partial sums
    (None when too few usable points).  The partial sums are kept unscaled,
    as integers in units of ``2^-working_prec``; ``partial_sums`` rounds
    them like the value on first read, whatever the precision then.
    """

    value: mpf
    terms_used: int
    tail_bound: mpf
    measured_rate: Optional[float]
    fixed_partial_sums: Tuple[int, ...] = field(repr=False, default=())
    prefactor: Fraction = field(repr=False, default=Fraction(1))
    working_prec: int = field(repr=False, default=53)

    @cached_property
    def partial_sums(self) -> Tuple[mpf, ...]:
        return tuple(
            _from_fixed(self.prefactor, s, self.working_prec)
            for s in self.fixed_partial_sums
        )


def _log2(x: mpf) -> float:
    """``log2 |x|`` of a nonzero mpf, from the top 53 bits of its mantissa.

    Truncating the mantissa to ``m = man >> shift`` moves the log by less than
    ``2^-51``; ``math.log2(m) < 54`` rounds by less than ``2^-47``, and adding
    the exponent by half an ulp.  So the error is below
    ``2^-45 max(1, |log2 x|)``, and no mantissa width overflows a float.
    """
    _, man, exp, bc = x._mpf_
    shift = max(bc - 53, 0)
    return math.log2(man >> shift) + (exp + shift)


_LOG10_2 = math.log10(2)


def _fit_errors(points: Iterable[Tuple[int, float]]) -> Optional[float]:
    """Least-squares slope of ``-log10 |S_i - S|`` against ``i`` over the back
    half of the points ``(i, log2 |S_i - S|)``; None for fewer than 3."""
    points = list(points)
    back = points[len(points) // 2 :]
    if len(back) < 3:
        return None
    return -statistics.linear_regression(*zip(*back)).slope * _LOG10_2


def measured_rate(partial_sums: Sequence[mpf], reference: mpf) -> float:
    """Digits gained per term, measured against a more accurate reference.

    Fits the least-squares slope of ``-log10 |S_n - reference|`` over the
    last half of the sequence, which must hold at least 10 partial sums.
    Partial sums that exactly equal the reference are clamped out of the fit.
    """
    if len(partial_sums) < 10:
        raise ValueError("need at least 10 partial sums")
    slope = _fit_errors(
        (i, _log2(d)) for i, s in enumerate(partial_sums) if (d := abs(s - reference))
    )
    if slope is None:
        raise ValueError("not enough usable points to fit a rate")
    return slope


# --------------------------------------------------------------------------
# The hypergeometric term core
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HypTerms:
    """Exact terms ``t(n) w(n)``, ``t(n) = t0 c^n prod (q)_{pn} / prod (q')_{p'n}``.

    Each factor ``(p, q)`` in ``num`` and ``den`` is a Pochhammer symbol with
    integer ``p >= 0``.  The ratio ``r(n) = c prod (q + pn)_p / prod (q' + p'n)_{p'}``
    is ``N(n) / D(n)`` for the integer polynomials ``integer_ratio``, built once
    per core.  ``weight`` holds the integer coefficients ``(A, B)`` of
    ``w(n) = A(n) / B(n)``; it multiplies term ``n`` after the recurrence, so
    a vanishing weight never enters a denominator.  The terms end after the
    last nonzero ``t(n)``.
    """

    t0: Fraction
    c: Fraction
    num: Tuple[Tuple[int, Fraction], ...]
    den: Tuple[Tuple[int, Fraction], ...]
    weight: IntegerForm = ((1,), (1,))

    @cached_property
    def integer_ratio(self) -> IntegerForm:
        """``(N, D)``: integer coefficients, lowest degree first, of ``r = N / D``."""
        return integer_forms(
            [(self.c, [(q, p, p) for p, q in self.num])],
            [(1, [(q, p, p) for p, q in self.den])],
        )

    def ratio(self, n: int) -> Fraction:
        """``t(n + 1) / t(n)``; a lower symbol that is 0 at ``n + 1`` raises."""
        return quotient(*self.integer_ratio, n, 1)

    def limit(self) -> Fraction:
        """``|L| = |c| prod p^p / prod p'^p'``: the limit of ``|r(n)|`` when the
        lengths in ``num`` and ``den`` add up alike."""
        limit = abs(self.c) * math.prod(p**p for p, _ in self.num)
        return limit / math.prod(p**p for p, _ in self.den)

    @property
    def ends(self) -> bool:
        """``t0`` or ``c`` is 0, or a numerator symbol ``(q)_{pn}`` with an
        integer ``q <= 0`` is 0 from some ``n`` on."""
        zero = any(p and q.denominator == 1 and q <= 0 for p, q in self.num)
        return zero or self.c == 0 or not self.t0

    def check_convergence(self) -> None:
        """Raise unless ``|r(n)|`` tends to a limit below 1 or the terms end."""
        excess = sum(p for p, _ in self.num) - sum(p for p, _ in self.den)
        if self.ends or excess < 0:
            return
        limit = self.limit() if excess == 0 else math.inf
        if limit > 1:
            raise SeriesDivergenceError(f"|term ratio| -> {limit} > 1: diverges")
        if limit == 1:
            raise EvaluationError("|term ratio| -> 1: not geometrically convergent")

    def terms(self) -> Iterator[Fraction]:
        """The exact terms ``t(n) w(n)``, as ``Fraction``s."""
        self.check_convergence()
        t = self.t0
        for n in itertools.count():
            if not t:
                return
            yield t * quotient(*self.weight, n)
            t *= self.ratio(n)

    @cached_property
    def tail_forms(self) -> Optional[tuple]:
        """``(n0, P, Q, Ah, Bv)``: integer polynomials such that, for every
        ``N >= n0`` with ``P(N) < Q(N)`` and ``Bv(N) > 0``::

            sum_{n >= N} |t(n) w(n)| <= |t(N)| Ah(N) Q(N) / (Bv(N) (Q(N) - P(N)))

        ``r(n) = +-L prod (n + a_i) / prod (n + b_j)`` with ``L = limit()``,
        every factor positive for ``n >= n0``.  Paired in sorted order, over
        ``n >= N``, ``a > b`` gives at most ``(N + a) / (N + b)``, ``a <= b``
        at most 1, and an unpaired ``1 / (n + b)`` at most ``1 / (N + b)``.
        ``|A(n)| <= (n/N)^dA Ah(N)``; ``|B(n)| >= (n/N)^dB Bv(N)``, ``Bv`` keeping
        the coefficients of sign opposite to the leading one; ``(n/N)^d <= (1 +
        1/N)^(d (n-N))`` joins the ratio for ``d = dA - dB > 0``.  None when
        the numerator has more factors: such terms end.
        """
        above, below = (
            sorted((q + j) / p for p, q in side for j in range(p))
            for side in (self.num, self.den)
        )
        # |n + a| <= n + max(a, -2 - a) for n >= 1: no n0 for a noninteger a
        above = sorted(a if a.denominator == 1 else max(a, -2 - a) for a in above)
        if len(above) > len(below):
            return None
        n0 = max([1] + [math.floor(-x) + 1 for x in above + below])
        top, bottom = self.weight
        d = max(len(top) - len(bottom), 0)
        p = Polynomial.constant(self.limit()) * Polynomial((1, 1)) ** d
        q = Polynomial((0, 1)) ** d
        for a, b in itertools.zip_longest(above, below):
            if a is None or a > b:  # an unpaired lower factor, or a pair above 1
                q = q * Polynomial((b, 1))
                if a is not None:
                    p = p * Polynomial((a, 1))
        sign = 1 if bottom[-1] > 0 else -1
        floor = tuple(min(sign * c, 0) for c in bottom[:-1]) + (abs(bottom[-1]),)
        return (n0, *integer_coefficients(p, q), tuple(map(abs, top)), floor)

    def grouped(self, m: int) -> "HypTerms":
        """Term ``n`` is ``sum_{j<m} t(mn+j) w(mn+j)``.

        The outer term is ``t(mn)``: each symbol ``(q)_{pn}`` becomes
        ``(q)_{pmn}``, so ``(p, q)`` maps to ``(pm, q)``, and ``c`` becomes
        ``c^m``.  The weight is ``sum_{j<m} w(mn+j) prod_{i<j} r(mn+i)``,
        composed once at ``mn + j`` into one ``U(n) / V(n)`` over the common
        denominator ``prod_{i<m-1} D(mn+i)`` times the base weights'
        denominators.
        """
        if m == 1:
            return self
        top, bottom = self.integer_ratio
        a, b = self.weight

        def at(coeffs: Sequence[int], j: int) -> Polynomial:
            return horner(coeffs, Polynomial((j, m)), Polynomial.zero())

        # nested from the last summand: w(j) + r(j) (w(j+1) + r(j+1) (...))
        u, v = at(a, m - 1), at(b, m - 1)
        for j in range(m - 2, -1, -1):
            d, bj = at(bottom, j), at(b, j)
            u, v = at(a, j) * d * v + bj * at(top, j) * u, bj * d * v
        num = tuple((p * m, q) for p, q in self.num)
        den = tuple((p * m, q) for p, q in self.den)
        return HypTerms(self.t0, self.c**m, num, den, integer_coefficients(u, v))

    def rate(self) -> float:
        """Digits per term ``log10(1/|L|)``, with ``L = c prod p^p / prod p'^p'``
        the limit of ``r(n)`` (the lengths in ``num`` and ``den`` add up alike)."""
        if self.c == 0:
            raise ValueError("z = 0 has no geometric rate")
        limit = self.limit()
        return math.log10(limit.denominator) - math.log10(limit.numerator)


def _tail(states: List[list], n: int) -> Optional[int]:
    """Bound, in units, on the cores' terms from ``n`` on; None while a
    core's ``tail_forms`` do not yet apply at ``n``."""
    total = 0
    for t, e, core in states:
        if not (t or e):
            continue  # exactly zero: the terms ended
        if core.tail_forms is None or n < core.tail_forms[0]:
            return None
        _, p, q, top, bottom = core.tail_forms
        p, q, low = horner(p, n), horner(q, n), horner(bottom, n)
        if p >= q or low <= 0:
            return None
        total += -(-(abs(t) + e) * horner(top, n) * q // (low * (q - p)))
    return total


def _sum_fixed(
    cores: Sequence[HypTerms], bits: int, budget: int, slack: Fraction, max_terms: int
) -> Tuple[List[int], int, int]:
    """Partial sums, tail bound (with ``slack`` times a bound on ``|S|``) and
    rounding bound, in units of ``2^-bits``, at the first ``N`` where they add
    up to less than ``budget``, a rounding bound past half of it counting half."""
    states = []
    for core in cores:
        core.check_convergence()
        # terms that do not end stop only at a tail bound, read from n0 on
        if not core.ends and core.tail_forms[0] > max_terms:
            n0 = core.tail_forms[0]
            raise EvaluationError(f"no tail bound before term {n0} of {max_terms}")
        t, rem = divmod(core.t0.numerator << bits, core.t0.denominator)
        states.append([t, int(rem != 0), core])
    total, rounding, partials = 0, 1, []  # 1 unit for the final rounding
    for n in itertools.count():
        tail = _tail(states, n)
        if tail is not None and tail + min(rounding, budget // 2) < budget:
            spread = (abs(total) + tail + rounding) * slack.numerator
            tail += -(-spread // slack.denominator)
            if tail + min(rounding, budget // 2) < budget:
                return partials, tail, rounding
        if n == max_terms:
            raise EvaluationError(f"tail target not reached within {max_terms} terms")
        for state in states:
            t, e, core = state
            if not (t or e):
                continue
            a, b = (horner(c, n) for c in core.weight)
            if not b:
                raise ZeroDivisionError(f"division by zero at n={n}")
            u, rem = divmod(t * a, b)
            total += u
            rounding += -(-e * abs(a) // abs(b)) + (rem != 0)
            top, bottom = (horner(c, n) for c in core.integer_ratio)
            if not bottom:
                raise ZeroDivisionError(f"division by zero at n={n + 1}")
            t, rem = divmod(t * top, bottom)
            state[0] = t
            state[1] = -(-e * abs(top) // abs(bottom)) + (rem != 0)
        partials.append(total)


def sum_terms(
    cores: Sequence[HypTerms],
    target_digits: int,
    prefactor: Union[Fraction, mpf, int, None] = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalResult:
    """Sum the cores, term ``n`` being the sum of their terms ``n``, until the
    proven error bound falls below ``10^-target_digits``.

    ``prefactor`` scales both the returned value and the tolerance target,
    so the tail bound always refers to the final reported value.  An
    interval prefactor (``iv.mpf``) is taken at its midpoint, and the bound
    covers its radius times ``|S|``.  Terms that end make an exact sum, whose
    bound is its rounding alone.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    slack = Fraction(0)  # the prefactor's radius over its midpoint
    if isinstance(prefactor, iv.mpf):
        low, high = (Fraction(*to_rational(end)) for end in prefactor._mpi_)
        prefactor, slack = (low + high) / 2, (high - low) / abs(low + high)
    if isinstance(prefactor, mpf):
        prefactor = Fraction(*to_rational(prefactor._mpf_))
    pref = Fraction(1 if prefactor is None else prefactor)
    if not pref:
        raise ValueError("prefactor must be nonzero")
    # budget = 10^-d / |pref| in units of 2^-bits, and at least 10^-d
    scale = 10**target_digits * abs(pref.numerator)
    wide = 10**target_digits * max(abs(pref.numerator), pref.denominator)
    bits = wide.bit_length() - pref.denominator.bit_length() + 1 + GUARD_BITS
    for attempt in (1, 2):
        budget = (pref.denominator << bits) // scale
        partials, tail, rounding = _sum_fixed(cores, bits, budget, slack, max_terms)
        if 2 * rounding <= budget:
            break
        if attempt == 2:
            raise EvaluationError(f"rounding above half the target at {bits} bits")
        bits += rounding.bit_length() - budget.bit_length() + 2
    total = partials[-1] if partials else 0
    # the fit ignores errors within 10^-(d+12) of the sum, relative
    floor = max(1 << bits, abs(total)) // 10 ** (target_digits + 12)
    bound = abs(pref.numerator) * (tail + rounding), pref.denominator << bits
    return EvalResult(
        value=_from_fixed(pref, total, bits),
        terms_used=len(partials),
        tail_bound=_rounded(*bound, 53, round_up),
        measured_rate=_fit_errors(
            (i, math.log2(d) - bits)
            for i, s in enumerate(partials[:-1])
            if (d := abs(s - total)) > floor
        ),
        fixed_partial_sums=tuple(partials),
        prefactor=pref,
        working_prec=bits,
    )


@cache
def derived_core(ds: DerivedSeries) -> HypTerms:
    """``t(n) = (a+1)_{kn} (b+1)_{sn} / ((a+b+2)_{(k+s)n} z^n)``, weight ``w(n)``."""
    a, b, k, s = ds.a, ds.b, ds.k, ds.s
    num, den = ((k, a + 1), (s, b + 1)), ((k + s, a + b + 2),)
    return HypTerms(Fraction(1), 1 / ds.z, num, den, ds.integer_weight)


def derived_terms(ds: DerivedSeries) -> Iterator[Fraction]:
    """Exact terms of the series by the ratio recurrence."""
    return derived_core(ds).terms()


def evaluate_derived(ds: DerivedSeries, target_digits: int) -> EvalResult:
    """Value of the bound seed integral: prefactor times the series sum.

    The prefactor ``B(a+1, b+1) / z`` is the float library's Beta at
    ``GUARD_BITS`` beyond the target and beyond ``log2 |prefactor|``, which
    ``B(x, y) <= 2/x + 2/y`` bounds.  The bound allows that Beta ``2^32``
    units in its last place: the sum takes the prefactor as an interval.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    size = (2 / (ds.a + 1) + 2 / (ds.b + 1)) / abs(ds.z)
    bits = (10**target_digits * math.ceil(size)).bit_length() + GUARD_BITS
    with mp.workprec(bits):
        pref = mp.beta(to_mpf(ds.a + 1), to_mpf(ds.b + 1)) / to_mpf(ds.z)
    unit = from_man_exp(1, mp.mag(pref) + 32 - bits)
    pref = iv.make_mpf((mpf_sub(pref._mpf_, unit), mpf_add(pref._mpf_, unit)))
    return sum_terms([derived_core(ds)], target_digits, prefactor=pref)


@cache
def product_core(p: Product) -> HypTerms:
    """The core of one printed product, with ``a / b`` as its weight."""
    return HypTerms(Fraction(1), p.c, p.num, p.den, integer_coefficients(p.a, p.b))


def evaluate_expr(
    expr: Union[TermExpr, str], target_digits: int
) -> EvalResult:
    """Sum a printed-form summand ``e(0) + e(1) + ...`` to target accuracy.

    Term ``n`` is the sum of term ``n`` of each product's core.  Accepts
    either the parsed normal form or grammar text.
    """
    if isinstance(expr, str):
        expr = parse_term_expr(expr)
    return sum_terms([product_core(p) for p in expr], target_digits)


def predicted_rate(ds: DerivedSeries) -> float:
    """Asymptotic decimal digits gained per term: ``log10(|z| / M(k, s))``."""
    return derived_core(ds).rate()
