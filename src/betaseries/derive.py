"""Seed solving: turn an integral with a polynomial denominator into a series.

The pipeline starts from a seed integral ``I = int_0^1 x^a (1-x)^b / P(x) dx``
with known value, picks kernel exponents ``(k, s)``, and looks for the unique
constant ``z`` making ``z - x^k (1-x)^s`` exactly divisible by ``P``.  The
quotient ``Q`` and the solved ``z`` determine a hypergeometric-style series
whose sum (times a Beta-function prefactor) reproduces ``I`` while converging
geometrically with ratio ``sup_[0,1] x^k(1-x)^s / |z|``.

``solve_seed_param`` runs the same procedure with a parameter ``w`` carried
through the polynomial arithmetic, producing ``z(w)`` and ``Q(x, w)`` that
specialize exactly at any admissible rational ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .expressions import pochhammer
from .polynomials import (
    ParamPolynomial,
    Polynomial,
    RationalLike,
    convergence_bound,
    expand_kernel,
    has_root_on_unit_interval,
    poly_divmod,
    rational,
)


class DerivationError(ValueError):
    """Seed solving failed."""


class NotDivisibleError(DerivationError):
    """No constant z makes the kernel polynomial divisible by the seed."""


class DivergentSeriesError(DerivationError):
    """The solved z is inside the divergence region."""


class DegenerateSeriesError(DerivationError):
    """z = 0: the series prefactor is undefined."""


@dataclass(frozen=True)
class SeedIntegral:
    """The integral ``int_0^1 x^a (1-x)^b / p(x) dx`` to be accelerated.

    Integrability demands ``a > -1`` and ``b > -1``; the denominator must
    not vanish anywhere on [0, 1], which is checked by an exact sign scan.
    """

    a: Fraction
    b: Fraction
    p: Polynomial

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        if self.a <= -1 or self.b <= -1:
            raise ValueError("need a > -1 and b > -1 for endpoint integrability")
        if self.p.is_zero:
            raise ValueError("seed denominator is the zero polynomial")
        if has_root_on_unit_interval(self.p):
            raise ValueError("seed denominator has a root on [0, 1]")


@dataclass(frozen=True)
class DerivedSeries:
    """A fully determined series instance.

    Fields pin down the summand
    ``t(n) = (a+1)_{kn} (b+1)_{sn} / ((a+b+2)_{(k+s)n} z^n) * w(n)`` where
    ``w(n)`` is built from ``qcoeffs`` (see ``weight_values``), and the bound
    value ``c = B(a+1, b+1)/z * sum t(n)`` equals the seed integral.  The
    divisibility identity ``seed_p * Q == z - x^k (1-x)^s`` is re-checked
    exactly on construction, as is the convergence bound ``|z| > M(k, s)``.
    """

    a: Fraction
    b: Fraction
    k: int
    s: int
    z: Fraction
    qcoeffs: Tuple[Fraction, ...]
    seed_p: Optional[Polynomial] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        object.__setattr__(self, "z", rational(self.z))
        object.__setattr__(
            self, "qcoeffs", tuple(rational(c) for c in self.qcoeffs)
        )
        if self.a <= -1 or self.b <= -1:
            raise ValueError("need a > -1 and b > -1")
        if self.k < 0 or self.s < 0 or self.k + self.s < 1:
            raise ValueError("need nonnegative k, s with k + s >= 1")
        if self.z == 0:
            raise DegenerateSeriesError("z = 0 leaves the prefactor undefined")
        if abs(self.z) <= convergence_bound(self.k, self.s):
            raise DivergentSeriesError("derived series diverges")
        q = self.q
        if q.is_zero:
            raise ValueError("Q must be nonzero")
        target = Polynomial.constant(self.z) + expand_kernel(self.k, self.s)
        if self.seed_p is None:
            p, rem = poly_divmod(target, q)
            if not rem.is_zero:
                raise ValueError("Q does not divide z - x^k (1-x)^s exactly")
            object.__setattr__(self, "seed_p", p)
        elif self.seed_p * q != target:
            raise ValueError("seed_p * Q != z - x^k (1-x)^s")

    @property
    def q(self) -> Polynomial:
        return Polynomial(self.qcoeffs)

    def __str__(self) -> str:
        return (
            f"DerivedSeries(a={self.a}, b={self.b}, k={self.k}, s={self.s}, "
            f"z={self.z}, Q={self.q})"
        )


@dataclass(frozen=True)
class ParamDerivedSeries:
    """Parameterized variant: ``z`` and the Q coefficients are polynomials in w."""

    a: Fraction
    b: Fraction
    k: int
    s: int
    z_w: Polynomial
    qcoeffs_w: Tuple[Polynomial, ...]
    seed_p: ParamPolynomial

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        object.__setattr__(self, "qcoeffs_w", tuple(self.qcoeffs_w))
        kernel = ParamPolynomial.from_polynomial(expand_kernel(self.k, self.s))
        if self.seed_p * self.q_w != kernel + self.z_w:
            raise ValueError("seed_p * Q != z(w) - x^k (1-x)^s identically")

    @property
    def q_w(self) -> ParamPolynomial:
        return ParamPolynomial(self.qcoeffs_w)

    def specialize(self, w0: RationalLike) -> DerivedSeries:
        """Exact substitution of a rational parameter value.

        Raises if the specialized seed or series violates its invariants
        (e.g. a root of P(x, w0) lands inside [0, 1], or |z(w0)| falls
        inside the divergence region).
        """
        w0 = rational(w0)
        return DerivedSeries(
            a=self.a,
            b=self.b,
            k=self.k,
            s=self.s,
            z=self.z_w(w0),
            qcoeffs=tuple(q(w0) for q in self.qcoeffs_w),
            seed_p=self.seed_p.specialize(w0),
        )


def _divide_kernel(p: Polynomial, k: int, s: int, constant_message: str):
    """Divide the z-free kernel part ``-x^k (1-x)^s`` by ``p`` in x.

    Returns the quotient, the remainder and the x-degrees >= 1 at which the
    remainder is nonzero.  The remainder of the full dividend
    ``z - x^k (1-x)^s`` is this one plus ``z`` in its constant term, so
    divisibility needs those degrees empty and pins ``z = -remainder[0]``.
    Works over Q and over Q[w] alike; ``constant_message`` is the
    ``NotDivisibleError`` text for a ``p`` constant in x.
    """
    if k < 0 or s < 0 or k + s < 1:
        raise ValueError("need nonnegative k, s with k + s >= 1")
    if p.degree < 1:
        raise NotDivisibleError(constant_message)
    q, r = poly_divmod(type(p)(expand_kernel(k, s).coeffs), p)
    return q, r, [deg for deg in range(1, r.degree + 1) if r.coefficient(deg)]


def solve_seed(seed: SeedIntegral, k: int, s: int) -> DerivedSeries:
    """Find z and Q with ``seed.p * Q == z - x^k (1-x)^s`` exactly.

    Divides the z-independent kernel part by P (``_divide_kernel``): every
    non-constant remainder coefficient must vanish, and
    ``z = -remainder[0]``.
    """
    q0, r0, bad = _divide_kernel(
        seed.p,
        k,
        s,
        "constant seed denominator leaves z undetermined; "
        "divide it out instead of solving",
    )
    if bad:
        raise NotDivisibleError(
            "not divisible for any z -- change k,s or parameterize P; "
            f"offending remainder {r0}"
        )
    z = -r0.coefficient(0)
    if z == 0:
        raise DegenerateSeriesError(
            "solved z = 0: kernel already divisible by P, prefactor undefined"
        )
    if abs(z) <= convergence_bound(k, s):
        raise DivergentSeriesError(
            f"derived series diverges: |z| = {abs(z)} <= "
            f"{convergence_bound(k, s)} = sup x^k(1-x)^s"
        )
    return DerivedSeries(
        a=seed.a, b=seed.b, k=k, s=s, z=z, qcoeffs=q0.coeffs, seed_p=seed.p
    )


def solve_seed_param(
    p: ParamPolynomial,
    k: int,
    s: int,
    a: RationalLike = 0,
    b: RationalLike = 0,
) -> ParamDerivedSeries:
    """Parameterized seed solve: find polynomial ``z(w)`` and ``Q(x, w)``.

    Requires the divisor's leading x-coefficient to be a nonzero constant.
    The x-remainder of the kernel part must vanish identically in w except
    for its constant-in-x coefficient, which determines ``z(w)``.
    """
    q0, r0, bad = _divide_kernel(
        p, k, s, "constant-in-x denominator leaves z undetermined"
    )
    if bad:
        raise NotDivisibleError(
            "no polynomial z(w) clears the remainder: x-degrees "
            f"{bad} of the remainder are nonzero in w ({r0})"
        )
    z_w = -r0.coefficient(0)
    if z_w.is_zero:
        raise DegenerateSeriesError("solved z(w) = 0 identically")
    return ParamDerivedSeries(
        a=rational(a),
        b=rational(b),
        k=k,
        s=s,
        z_w=z_w,
        qcoeffs_w=q0.coeffs,
        seed_p=p,
    )


def weight_values(ds: DerivedSeries, n: int) -> Fraction:
    """Exact weight ``w(n)`` contributed by Q's coefficients ``a_j``.

    ``w(n) = sum_j a_j (a + 1 + kn)_j / (a + b + 2 + (k+s)n)_j``.  Every
    lower symbol is positive, since ``a, b > -1``.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    top = ds.a + 1 + ds.k * n
    bottom = ds.a + ds.b + 2 + (ds.k + ds.s) * n
    return sum(
        coeff * pochhammer(top, j) / pochhammer(bottom, j)
        for j, coeff in enumerate(ds.qcoeffs)
    )
