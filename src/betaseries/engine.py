"""Arbitrary-precision series evaluation with rigorous empirical tail bounds.

Derived, hypergeometric, grouped and printed series share one term core,
``HypTerms``: a first term, a constant, Pochhammer symbols ``(q)_{pn}``
above and below, and an optional weight.  Its term ratio is ``N(n) / D(n)``
for two integer polynomials built once per core
(``polynomials.integer_forms``), and a derived weight is ``A(n) / B(n)``,
built once per series (``derive.weight_values``).  So each term costs
integer Horner evaluations and one ``Fraction`` each for the ratio and the
weight.  Grouping ``m`` terms at a time is a transform of the core that
maps each symbol ``(p, q)`` to ``(pm, q)``, and the predicted rate is read
off the term ratio's limit.  Each product of a printed summand
(``expressions.Product``) is one core, with ``a(n) / b(n)`` as its weight.
Before its first term a core rejects a ratio limit that is not below 1 in
absolute value, unless its terms end; they end after the last nonzero
``t(n)``, and ``sum_terms`` takes a stream that ends as an exact finite sum.

Terms are computed as exact rationals by that ratio recurrence and rounded
once each into binary floats at a working precision of
``target_digits + 15``; the guard combined with a single final rounding
keeps accumulated rounding far below the reported tail bound for any
realistic term count (< 10^5 terms).

Tail policy: once the absolute term ratio has stayed below 1, the tail of
a geometrically dominated series is bounded by ``|t_N| * r / (1 - r)``
with ``r`` the maximum of the last five observed ratios inflated by 10%.
The inflation absorbs the preasymptotic window where ratios still drift
upward toward their limit; soundness is additionally validated by the
re-evaluate-at-higher-precision checks in the test suite.  Summation stops
when that bound (including any prefactor) drops below ``10^-target_digits``.
Eight consecutive ratios at or above 1 are treated as divergence.

Only the value needs the working precision, so each step runs at the
precision it needs:

- the terms and the running sum: working precision;
- tail control: a float filter on ``log2 |t|`` (``_log2``) decides the
  term ratios and the tail bound; what it leaves open is computed at working
  precision from the last six nonzero ``|t|``, so the stop index, the
  divergence verdict and the bound are those of the working-precision policy;
- the rate fit: ``|S_n - S|`` at working precision (it cancels), its
  logarithm as the float ``_log2``, since the fitted slope is a float;
- ``EvalResult.partial_sums``: scaled by the prefactor when first read.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

from mpmath import mp, mpf

from .derive import DerivedSeries, weight_values
from .expressions import Product, TermExpr, parse_term_expr
from .polynomials import horner, integer_coefficients, integer_forms, quotient

# Nothing here calls the closed form.  ``expr_value`` stays importable from
# this module only because the benchmark's tracer (``bench/layers.py``)
# patches ``engine.expr_value`` as a layer boundary; remove both together.
from .expressions import evaluate as expr_value  # noqa: F401

GUARD_DIGITS = 15

DEFAULT_MAX_TERMS = 100_000


class EvaluationError(ArithmeticError):
    """Series evaluation could not reach the requested accuracy."""


class SeriesDivergenceError(EvaluationError):
    """The term ratio tends to a limit above 1, or stayed at or above 1."""


def to_mpf(x: Union[Fraction, int, float, mpf]) -> mpf:
    """Round an exact rational (or number) to an mpf at the current precision."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return mpf(x.numerator)
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a series evaluation.

    ``tail_bound`` is a rigorous bound on ``|value - true sum|`` under the
    geometric-domination assumption validated during summation.
    ``measured_rate`` is the decimal-digits-per-term slope fitted over the
    trailing half of the partial sums (None when too few usable points).

    ``partial_sums`` (prefactor included) is computed on first read from the
    running sums kept unscaled, at the working precision ``working_prec``
    (bits) of the evaluation, whatever the precision at the time of reading,
    and then cached.
    """

    value: mpf
    terms_used: int
    tail_bound: mpf
    measured_rate: Optional[float]
    unscaled_partial_sums: Tuple[mpf, ...] = field(repr=False, default=())
    prefactor: mpf = field(repr=False, default=mpf(1))
    working_prec: int = field(repr=False, default=53)

    @cached_property
    def partial_sums(self) -> Tuple[mpf, ...]:
        with mp.workprec(self.working_prec):
            return tuple(self.prefactor * s for s in self.unscaled_partial_sums)


def _fit_rate(points: Sequence[Tuple[int, float]]) -> Optional[float]:
    """Least-squares slope of digits-of-accuracy against index."""
    if len(points) < 3:
        return None
    n = len(points)
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        return None
    return (n * sxy - sx * sy) / denom


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


def _fit_errors(
    partial_sums: Sequence[mpf], reference: mpf, floor: mpf
) -> Optional[float]:
    """``_fit_rate`` of the points ``(i, -log10 |S_i - reference|)``.

    Fits the back half of the points whose error is above ``floor``.
    """
    pts = []
    for i, s in enumerate(partial_sums):
        d = abs(s - reference)
        if d > floor:
            pts.append((i, -_log2(d) * _LOG10_2))
    return _fit_rate(pts[len(pts) // 2 :])


def measured_rate(partial_sums: Sequence[mpf], reference: mpf) -> float:
    """Digits gained per term, measured against a more accurate reference.

    Fits the least-squares slope of ``-log10 |S_n - reference|`` over the
    last half of the sequence, which must hold at least 10 partial sums.
    Partial sums that exactly equal the reference are clamped out of the fit.
    """
    if len(partial_sums) < 10:
        raise ValueError("need at least 10 partial sums")
    slope = _fit_errors(partial_sums, reference, mpf(0))
    if slope is None:
        raise ValueError("not enough usable points to fit a rate")
    return slope


class _TailControl:
    """The tail policy of the module docstring, fed one ``|t_n|`` at a time.

    Every decision equals the one computed wholly at working precision (the
    precision current when ``push`` is called).  A float filter decides
    first, in log2: a ratio is ``2^step`` for a step between two ``_log2``,
    and the bound's log is ``log2 |t| + log2 rhat - log2(1 - rhat)``.  With
    ``scale`` the largest ``max(1, |log2|)`` seen, steps and ``log2 rhat``
    are within ``2^-43 scale``; the bound's log, formed only for
    ``rhat <= 1 - 2^-8``, is within ``2^-33 scale``, and working precision
    (56 bits or more) adds ``2^-44`` relative.  What the filter does not
    clear by ``slack = 2^-30 scale`` is computed at working precision from
    the last six nonzero ``|t|``, which determine the last five ratios.
    """

    SLACK = 2.0**-30
    LOG2_INFLATION = math.log2(1.1)
    #: the largest ``log2 rhat`` whose bound the filter may reject
    LOG2_FILTERED = math.log2(1 - 2.0**-8)

    def __init__(self, tol: mpf, apref: mpf):
        self.tol = tol
        self.apref = apref
        self.log2_target = _log2(tol / apref)
        self.scale = max(1.0, abs(self.log2_target))
        self.diverging = 0
        self.mags: deque = deque(maxlen=6)  # last nonzero |t|, working precision
        self.log2_last = 0.0  # _log2 of the last of them
        self.steps: deque = deque(maxlen=5)  # log2 of their ratios

    def push(self, at: mpf) -> Optional[mpf]:
        """Take the next nonzero ``|t|``; the tail bound once it meets the target.

        Raises ``SeriesDivergenceError`` on the eighth consecutive ratio >= 1.
        """
        lg = _log2(at)
        self.scale = max(self.scale, abs(lg))
        slack = self.SLACK * self.scale
        if self.mags:
            step = lg - self.log2_last
            if step < -slack or (step <= slack and at / self.mags[-1] < 1):
                self.diverging = 0
            else:
                self.diverging += 1
                if self.diverging >= 8:
                    raise SeriesDivergenceError(
                        "term ratio stayed >= 1 for 8 consecutive terms"
                    )
            self.steps.append(step)
        self.mags.append(at)
        self.log2_last = lg
        if not self.steps:
            return None
        log2_rhat = self.LOG2_INFLATION + max(self.steps)
        if log2_rhat > slack:
            return None
        if log2_rhat <= self.LOG2_FILTERED:
            # 2.0**log2_rhat may underflow to 0 on a steep drop; the log stays
            log2_bound = lg + log2_rhat - math.log2(1 - 2.0**log2_rhat)
            if log2_bound > self.log2_target + slack:
                return None
        mags = list(self.mags)
        rhat = mpf("1.1") * max(b / a for a, b in zip(mags, mags[1:]))
        if rhat >= 1:
            return None
        bound = mags[-1] * rhat / (1 - rhat) * self.apref
        return bound if bound < self.tol else None


def sum_terms(
    terms: Iterable[Fraction],
    target_digits: int,
    prefactor: Union[Fraction, mpf, int, None] = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalResult:
    """Sum exact terms until the tail bound falls below ``10^-target_digits``.

    ``prefactor`` scales both the returned value and the tolerance target,
    so the tail bound always refers to the final reported value.  A stream
    that ends is an exact finite sum; its tail bound is the rounding floor.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    wp = target_digits + GUARD_DIGITS
    with mp.workdps(wp):
        pref = to_mpf(prefactor) if prefactor is not None else mpf(1)
        apref = abs(pref)
        if apref == 0:
            raise ValueError("prefactor must be nonzero")
        tol = mpf(10) ** (-target_digits)
        floor = mpf(10) ** (-(target_digits + GUARD_DIGITS - 5))
        control = _TailControl(tol, apref)
        total = mpf(0)
        partials = []

        for n, term in enumerate(terms):
            if n >= max_terms:
                raise EvaluationError(
                    f"tail target not reached within {max_terms} terms"
                )
            t = to_mpf(term)
            total += t
            partials.append(total)
            if t:
                tail = control.push(abs(t))
                if tail is not None:
                    break
        else:
            tail = floor  # the stream ended: the sum is exact
        # rate fit against the final value, ignoring points at rounding noise
        noise = mpf(10) ** (-(wp - 3)) * max(mpf(1), abs(total))
        rate = _fit_errors(partials[:-1], total, noise)
        return EvalResult(
            value=pref * total,
            terms_used=len(partials),
            tail_bound=max(tail, floor),
            measured_rate=rate,
            unscaled_partial_sums=tuple(partials),
            prefactor=pref,
            working_prec=mp.prec,
        )


# --------------------------------------------------------------------------
# The hypergeometric term core and the derived-series front end
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HypTerms:
    """Exact terms ``t(n) w(n)``, ``t(n) = t0 c^n prod (q)_{pn} / prod (q')_{p'n}``.

    Each factor ``(p, q)`` in ``num`` and ``den`` is a Pochhammer symbol with
    integer ``p >= 0``.  The ratio ``r(n) = c prod (q + pn)_p / prod (q' + p'n)_{p'}``
    is ``N(n) / D(n)`` for the integer polynomials ``integer_ratio``, built once
    per core, so each step is integer Horner work and one ``Fraction``.  The
    optional weight ``w(n)`` multiplies term ``n`` after the recurrence, so a
    vanishing weight never enters a denominator.  The terms end after the
    last nonzero ``t(n)``.
    """

    t0: Fraction
    c: Fraction
    num: Tuple[Tuple[int, Fraction], ...]
    den: Tuple[Tuple[int, Fraction], ...]
    weight: Optional[Callable[[int], Fraction]] = None

    @cached_property
    def integer_ratio(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
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

    def check_convergence(self) -> None:
        """Raise unless ``|r(n)|`` tends to a limit below 1 or the terms end,
        as they do once a numerator symbol ``(q)_{pn}`` with an integer
        ``q <= 0`` is 0."""
        excess = sum(p for p, _ in self.num) - sum(p for p, _ in self.den)
        ends = any(p and q.denominator == 1 and q <= 0 for p, q in self.num)
        if self.c == 0 or not self.t0 or excess < 0 or ends:
            return
        limit = self.limit() if excess == 0 else math.inf
        if limit > 1:
            raise SeriesDivergenceError(f"|term ratio| -> {limit} > 1: diverges")
        if limit == 1:
            raise EvaluationError("|term ratio| -> 1: not geometrically convergent")

    def terms(self) -> Iterator[Fraction]:
        self.check_convergence()
        t = self.t0
        for n in itertools.count():
            if not t:
                return
            yield t if self.weight is None else t * self.weight(n)
            t *= self.ratio(n)

    def grouped(self, m: int) -> "HypTerms":
        """Term ``n`` is ``sum_{j<m} t(mn+j) w(mn+j)``.

        The outer term is ``t(mn)``: each symbol ``(q)_{pn}`` becomes
        ``(q)_{pmn}``, so ``(p, q)`` maps to ``(pm, q)``, and ``c`` becomes
        ``c^m``.  The weight is ``sum_{j<m} w(mn+j) prod_{i<j} r(mn+i)``,
        summed as integers over the common denominator ``prod_{i<m-1} D(mn+i)``
        (times the base weights' denominators) into one ``Fraction``.
        """
        top, bottom = self.integer_ratio

        def base_weight(j: int) -> Tuple[int, int]:
            if self.weight is None:
                return 1, 1
            w = self.weight(j)
            return w.numerator, w.denominator

        def weight(n: int) -> Fraction:
            # nested from the last summand: w(j) + r(j) (w(j+1) + r(j+1) (...))
            u, v = base_weight(m * n + m - 1)
            for j in range(m * n + m - 2, m * n - 1, -1):
                a, b = base_weight(j)
                d = horner(bottom, j)
                u, v = a * d * v + b * horner(top, j) * u, b * d * v
            return Fraction(u, v)

        num = tuple((p * m, q) for p, q in self.num)
        den = tuple((p * m, q) for p, q in self.den)
        return HypTerms(self.t0, self.c**m, num, den, weight)

    def rate(self) -> float:
        """Digits per term ``log10(1/|L|)``, with ``L = c prod p^p / prod p'^p'``
        the limit of ``r(n)`` (the lengths in ``num`` and ``den`` add up alike)."""
        if self.c == 0:
            raise ValueError("z = 0 has no geometric rate")
        limit = self.limit()
        return math.log10(limit.denominator) - math.log10(limit.numerator)


def derived_core(ds: DerivedSeries) -> HypTerms:
    """``t(n) = (a+1)_{kn} (b+1)_{sn} / ((a+b+2)_{(k+s)n} z^n)``, weight ``w(n)``."""
    a, b, k, s = ds.a, ds.b, ds.k, ds.s
    num, den = ((k, a + 1), (s, b + 1)), ((k + s, a + b + 2),)
    return HypTerms(Fraction(1), 1 / ds.z, num, den, partial(weight_values, ds))


def derived_terms(ds: DerivedSeries) -> Iterator[Fraction]:
    """Exact terms of the series by the ratio recurrence."""
    return derived_core(ds).terms()


def evaluate_derived(ds: DerivedSeries, target_digits: int) -> EvalResult:
    """Value of the bound seed integral: prefactor times the series sum.

    The prefactor ``B(a+1, b+1) / z`` is computed with the float library's
    Beta at working precision; everything series-shaped stays exact until
    the one rounding per term.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    with mp.workdps(target_digits + GUARD_DIGITS):
        pref = mp.beta(to_mpf(ds.a + 1), to_mpf(ds.b + 1)) / to_mpf(ds.z)
    return sum_terms(derived_terms(ds), target_digits, prefactor=pref)


def product_core(p: Product) -> HypTerms:
    """The core of one printed product, with ``a / b`` as its weight, or as
    its first term when that is a constant."""
    if p.a.degree == 0 and p.b.degree == 0:
        return HypTerms(p.a.coeffs[0], p.c, p.num, p.den)
    weight = partial(quotient, *integer_coefficients(p.a, p.b))
    return HypTerms(Fraction(1), p.c, p.num, p.den, weight)


def evaluate_expr(
    expr: Union[TermExpr, str], target_digits: int
) -> EvalResult:
    """Sum a printed-form summand ``e(0) + e(1) + ...`` to target accuracy.

    Term ``n`` is the sum of term ``n`` of each product's core.  Accepts
    either the parsed normal form or grammar text.
    """
    if isinstance(expr, str):
        expr = parse_term_expr(expr)
    streams = [product_core(p).terms() for p in expr]
    if len(streams) != 1:
        streams = [map(sum, itertools.zip_longest(*streams, fillvalue=0))]
    return sum_terms(streams[0], target_digits)


def predicted_rate(ds: DerivedSeries) -> float:
    """Asymptotic decimal digits gained per term: ``log10(|z| / M(k, s))``."""
    return derived_core(ds).rate()
