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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Tuple, Union

from mpmath import mpf

from .engine import EvalResult, HypTerms, measured_rate, sum_terms
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
    """Evaluate either form's core with the engine's one summation loop."""
    return sum_terms([spec.core], target_digits)


def hyp_rate(spec: Union[HypSeriesSpec, GroupedSeries]) -> float:
    """Predicted digits per term: ``log10(1/|z|)``, times m when grouped."""
    return spec.core.rate()


@dataclass(frozen=True)
class GroupingReport:
    """Outcome of a grouping verification."""

    passed: bool
    base_value: object
    grouped_value: object
    base_rate: float
    grouped_rate: float
    detail: str = ""


def verify_grouping(base: HypSeriesSpec, m: int, digits: int) -> GroupingReport:
    """Check value agreement and the m-fold convergence speedup.

    Confirms ``|eval(base) - eval(group(base, m))| < 10^-digits`` and that
    the measured digits-per-term of the grouped series is ``m`` times the
    base rate within 0.05 (trivially satisfied at m = 1).
    """
    grouped = group(base, m)
    reference = eval_hyp(grouped, digits + 25)
    rb = eval_hyp(base, digits)
    rg = eval_hyp(grouped, digits)
    diff = abs(rb.value - rg.value)
    value_ok = diff < mpf(10) ** (-digits)
    if m == 1:
        rate_ok = True
        base_slope = grouped_slope = rb.measured_rate or 0.0
    else:
        base_slope = measured_rate(rb.partial_sums, reference.value)
        grouped_slope = measured_rate(rg.partial_sums, reference.value)
        rate_ok = abs(grouped_slope - m * base_slope) < 0.05
    detail = ""
    if not value_ok:
        detail += f"values differ by {diff}: base={rb.value}, grouped={rg.value}. "
    if not rate_ok:
        detail += f"rate multiple off: base {base_slope:.4f} digits/term, "
        detail += f"grouped {grouped_slope:.4f}, expected x{m}."
    return GroupingReport(
        passed=value_ok and rate_ok,
        base_value=rb.value,
        grouped_value=rg.value,
        base_rate=base_slope,
        grouped_rate=grouped_slope,
        detail=detail.strip(),
    )
