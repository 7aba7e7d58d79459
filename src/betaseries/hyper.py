"""Grouping transform for hypergeometric series with a unit upper parameter.

A series ``sum_n prod_g (x_g)_n / (y_g)_n * z^n`` (the unit upper parameter
and the ``n!`` lower pair cancel structurally and are never stored) can be
rewritten by summing ``m`` consecutive terms in closed Pochhammer form:

    outer_n = prod_g (x_g)_{mn} / (y_g)_{mn} * z^{mn}
    inner_n = sum_{j=0}^{m-1} z^j prod_g (x_g + mn)_j / (y_g + mn)_j

The grouped series ``sum_n outer_n * inner_n`` telescopes exactly onto the
base series -- partial sum ``N`` of the grouped form equals partial sum
``mN`` of the base -- and therefore converges ``m`` times faster in digits
per term.  Both forms are ``engine.HypTerms`` cores: the spec compiles to
the Pochhammer symbols ``(1, x_g)`` over ``(1, y_g)``, and ``grouped(m)``
maps each ``(p, q)`` to ``(pm, q)``, with ``inner_n`` as the weight.
``verify_grouping`` compares the rates that the two sums fit themselves,
and ``first_mismatch`` checks the telescoping exactly, on the integers of
both cores' binary splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

from mpmath import mpf

from .engine import EvalResult, HypTerms, _extend, _fit_rate, _merge, _Walk, sum_terms
from .polynomials import rational


class GroupingError(ValueError):
    """Invalid grouping request."""


@dataclass(frozen=True)
class HypSeriesSpec:
    """Series ``sum_n prod_g (upper_g)_n / (lower_g)_n * z^n``.

    The implicit extra upper parameter 1 makes terms purely rational
    products.  Lower parameters must avoid nonpositive integers.  The term
    ratio tends to ``z``, and the engine proves its tail bound from a limit
    below 1, so ``|z| = 1`` is rejected as not geometrically convergent.
    """

    upper: Tuple[Fraction, ...]
    lower: Tuple[Fraction, ...]
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(rational(x) for x in self.upper))
        object.__setattr__(self, "lower", tuple(rational(y) for y in self.lower))
        object.__setattr__(self, "z", rational(self.z))
        if len(self.upper) != len(self.lower):
            raise ValueError("need equally many upper and lower parameters")
        if not self.upper:
            raise ValueError("need at least one parameter pair")
        for y in self.lower:
            if y.denominator == 1 and y <= 0:
                raise ValueError(f"lower parameter {y} is a nonpositive integer")
        if abs(self.z) > 1:
            raise ValueError("|z| > 1: series diverges")
        if abs(self.z) == 1:
            raise ValueError("|z| = 1: not geometrically convergent")

    @cached_property
    def core(self) -> HypTerms:
        """Term ``n`` is ``z^n prod_g (x_g)_n / (y_g)_n``."""
        upper = tuple((1, x) for x in self.upper)
        lower = tuple((1, y) for y in self.lower)
        return HypTerms(Fraction(1), self.z, upper, lower)

    def terms(self) -> Iterator[Fraction]:
        """Exact terms via the one-step ratio recurrence."""
        return self.core.terms()


@dataclass(frozen=True)
class GroupedSeries:
    """The base series regrouped ``m`` terms at a time."""

    base: HypSeriesSpec
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise GroupingError("grouping step m must be >= 1")

    @cached_property
    def core(self) -> HypTerms:
        """The base core grouped: outer block ratio and inner weight."""
        return self.base.core.grouped(self.m)

    def terms(self) -> Iterator[Fraction]:
        """Exact grouped terms; the outer block advances by an m-step ratio."""
        return self.core.terms()


def group(base: HypSeriesSpec, m: int) -> GroupedSeries:
    """Regroup the series ``m`` terms at a time.

    ``m = 1`` still gives a ``GroupedSeries`` (with the base's terms), so
    ``accelerate --m 1`` reports ``"m": 1``.
    """
    return GroupedSeries(base=base, m=m)


def eval_hyp(
    spec: Union[HypSeriesSpec, GroupedSeries], target_digits: int
) -> EvalResult:
    """Evaluate either form's core with the engine's one summation routine."""
    return sum_terms([spec.core], target_digits)


def hyp_rate(spec: Union[HypSeriesSpec, GroupedSeries]) -> float:
    """Predicted digits per term: ``log10(1/|z|)``, times m when grouped."""
    return spec.core.rate()


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


def measured_rate(sums: Sequence[mpf], reference: mpf) -> float:
    """Digits gained per term, measured against a more accurate reference.

    Fits the least-squares slope of ``-log10 |S_n - reference|`` over the
    last half of the sequence, which must hold at least 10 partial sums.
    Partial sums that exactly equal the reference are clamped out of the fit.
    """
    if len(sums) < 10:
        raise ValueError("need at least 10 partial sums")
    points = [(i, _log2(d)) for i, s in enumerate(sums) if (d := abs(s - reference))]
    half = points[len(points) // 2 :]
    slope = _fit_rate([i for i, _ in half], [y for _, y in half])
    if slope is None:
        raise ValueError("not enough usable points to fit a rate")
    return slope


def _partial_sums(core: HypTerms, count: int) -> Iterator[Tuple[int, int]]:
    """The exact partial sums ``S_1, ..., S_count`` of the core's terms, each as
    the numerator and denominator of ``t0 T / (V Q)`` of the split over
    ``[0, n)``, one merge per leaf; after the last nonzero term the last sum
    repeats."""
    walk, split, t0 = _Walk(core), (1, 1, 1, 0), core.t0
    _extend([walk], count)
    for n in range(count):
        split = _merge(split, walk.leaves[n]) if n < len(walk.leaves) else split
        _, q, v, t = split
        yield t0.numerator * t, t0.denominator * v * q


def first_mismatch(base: HypTerms, grouped: HypTerms, m: int, count: int) -> Optional[int]:
    """The first ``n <= count`` at which partial sum ``n + 1`` of ``grouped``
    differs from partial sum ``m (n + 1)`` of ``base``, or None.

    Each partial sum is the exact rational of ``_partial_sums``, and
    two are compared by cross-multiplication; terms after the last nonzero
    one are 0.
    """
    base_sums = _partial_sums(base, m * (count + 1))
    grouped_sums = _partial_sums(grouped, count + 1)
    for n in range(count + 1):
        top, bottom = next(grouped_sums)
        for _ in range(m):
            base_top, base_bottom = next(base_sums)
        if top * base_bottom != base_top * bottom:
            return n
    return None


@dataclass(frozen=True)
class GroupingReport:
    """Outcome of a grouping verification; a rate is None when not fitted."""

    passed: bool
    base_value: object
    grouped_value: object
    base_rate: Optional[float]
    grouped_rate: Optional[float]
    detail: str = ""


def verify_grouping(base: HypSeriesSpec, m: int, digits: int) -> GroupingReport:
    """Check value agreement and the m-fold convergence speedup.

    Sums both forms once each to ``digits``: their values must agree within
    ``10^-digits``, and the grouped sum's own measured rate must be ``m``
    times the base sum's within 0.05.  A sum too short to fit a rate skips
    the rate check, and ``detail`` says so.
    """
    rb = eval_hyp(base, digits)
    rg = eval_hyp(group(base, m), digits)
    diff = abs(rb.value - rg.value)
    value_ok = diff < mpf(10) ** (-digits)
    base_rate, grouped_rate = rb.measured_rate, rg.measured_rate
    fitted = base_rate is not None and grouped_rate is not None
    rate_ok = not fitted or abs(grouped_rate - m * base_rate) < 0.05
    detail = ""
    if not value_ok:
        detail += f"values differ by {diff}: base={rb.value}, grouped={rg.value}. "
    if not fitted:
        detail += "too few terms to fit both rates."
    elif not rate_ok:
        detail += f"rate multiple off: base {base_rate:.4f} digits/term, "
        detail += f"grouped {grouped_rate:.4f}, expected x{m}."
    return GroupingReport(
        passed=value_ok and rate_ok,
        base_value=rb.value,
        grouped_value=rg.value,
        base_rate=base_rate,
        grouped_rate=grouped_rate,
        detail=detail.strip(),
    )
