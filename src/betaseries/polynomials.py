"""Exact polynomial arithmetic in ``x`` over Q or over Q[w].

``Polynomial`` is a dense polynomial in ``x`` (index = degree) whose
coefficients lie in one ring: ``fractions.Fraction`` by default, or, in the
subclass ``ParamPolynomial``, ``Polynomial``s in a parameter ``w``.  The
ring is chosen by one class hook that coerces each coefficient; addition,
multiplication, powers, equality, hashing and the long division
``poly_divmod`` are written once and serve both rings.  Over Q[w] the
divisor's leading x-coefficient must be a nonzero constant, which keeps
every quotient inside the ring (no rational functions of ``w`` ever
appear).  ``ParamPolynomial`` adds only exact specialization at a rational
``w``.  Root counting on [0, 1] (Sturm chains) works over Q.  The kernel
facts that seed solving, the catalog and the CLI share live here too:
``expand_kernel``, ``kernel_polynomial`` and ``convergence_bound``.  So
does the one builder of the term cores' integer polynomials in ``n``,
``integer_forms`` (over ``integer_coefficients``), with ``horner``,
``quotient`` and ``consecutive`` to evaluate them, and ``leaf_forms``
for the binary splitting of a term core.

Rationals are represented by ``fractions.Fraction`` throughout: it is
always reduced, its denominator is positive, and its canonical zero is
``Fraction(0, 1)``, which is exactly the representation this package
needs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from typing import Iterable, List, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, or Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Dense polynomial in ``x``; ``coeffs[i]`` is the coefficient of ``x**i``.

    The coefficients are ``Fraction``s here; a subclass picks another
    coefficient ring through the ``_coefficient`` hook, which coerces each
    coefficient on construction.  Trailing zeros are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero (an empty
    tuple, degree -1).  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    _coefficient = staticmethod(rational)

    def __init__(self, coeffs: Iterable = ()):
        cs = [self._coefficient(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, degree: int):
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return self._coefficient(0)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        """``other`` as a polynomial of this type; a coefficient is a constant."""
        if type(other) is type(self):
            return other
        if isinstance(other, str):
            return NotImplemented
        try:
            return type(self)((other,))
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return type(self)()
        out = [self._coefficient(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation, comparison, display -------------------------------

    def __call__(self, x: RationalLike):
        """Exact Horner evaluation at a rational point."""
        return horner(self.coeffs, rational(x), self._coefficient(0))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x")


def format_poly(coeffs: Sequence[Fraction], var: str) -> str:
    """Human-readable form, highest degree first: ``-3*x^2 + 15*x - 48``."""
    if not coeffs:
        return "0"
    parts = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            xpow = var if deg == 1 else f"{var}^{deg}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_divmod(dividend: Polynomial, divisor: Polynomial):
    """Exact long division in x: returns (quotient, remainder).

    Satisfies ``dividend == divisor * quotient + remainder`` with
    ``remainder.degree < divisor.degree``.  Raises ``ZeroDivisionError``
    for a zero divisor.  Over ``Q[w]`` the divisor's leading coefficient
    must be a nonzero rational constant, so every quotient coefficient
    stays a polynomial in w (no rational functions of w ever appear).
    """
    if divisor.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    lead = divisor.leading
    if isinstance(lead, Polynomial):
        if lead.degree != 0:
            raise ValueError("divisor not monic-up-to-constant in x")
        lead = lead.leading
    cls = type(dividend)
    if dividend.degree < divisor.degree:
        return cls(), dividend
    rem = list(dividend.coeffs)
    ddeg = divisor.degree
    qlen = len(rem) - ddeg
    quot = [dividend._coefficient(0)] * qlen
    inv = 1 / lead
    for shift in range(qlen - 1, -1, -1):
        factor = rem[shift + ddeg] * inv
        if factor:
            quot[shift] = factor
            for i, dc in enumerate(divisor.coeffs):
                rem[shift + i] = rem[shift + i] - factor * dc
    return cls(quot), cls(rem[:ddeg])


def expand_kernel(k: int, s: int) -> Polynomial:
    """Expanded form of ``-x^k * (1-x)^s`` with exact binomial coefficients.

    This is the z-independent part of the numerator ``z - x^k(1-x)^s``
    that the seed solver divides by the seed denominator.  Requires
    ``k + s >= 1`` (both zero would make the kernel a constant).
    """
    if k < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    if k + s < 1:
        raise ValueError("k = s = 0: kernel is constant, nothing to expand")
    coeffs = [Fraction(0)] * (k + s + 1)
    for j in range(s + 1):
        # -x^k * C(s,j) * (-x)^j contributes (-1)^(j+1) C(s,j) x^(k+j)
        coeffs[k + j] = Fraction(comb(s, j) * (-1 if j % 2 == 0 else 1))
    return Polynomial(coeffs)


def kernel_polynomial(z: RationalLike, k: int, s: int) -> Polynomial:
    """The kernel ``z - x^k (1-x)^s`` as an expanded polynomial in x."""
    return Polynomial.constant(z) + expand_kernel(k, s)


def convergence_bound(k: int, s: int) -> Fraction:
    """Supremum of ``x^k (1-x)^s`` on [0, 1]: ``k^k s^s / (k+s)^(k+s)``.

    Equals 1 when either exponent vanishes (the extremum moves to an
    endpoint).  A derived series converges iff ``|z|`` strictly exceeds
    this bound.
    """
    if k < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    if k == 0 or s == 0:
        return Fraction(1)
    return Fraction(k**k * s**s, (k + s) ** (k + s))


def integer_forms(*sums) -> Tuple[Tuple[int, ...], ...]:
    """Sums of rising factorials in ``n`` as integer coefficients, lowest first.

    Each sum is a sequence of terms ``(c, symbols)``: the rational ``c``
    times the product, over its symbols ``(x, d, m)``, of the rising
    factorials ``(x + dn)_m = prod_{j<m} (x + j + dn)``.  All the returned
    tuples are scaled by one positive rational, so the quotient of two of them
    at any ``n`` is the quotient of the two sums.  Term cores evaluate them at
    each ``n`` and multiply the values by binary splitting: integer work.
    """
    polys = []
    for terms in sums:
        total = Polynomial.zero()
        for c, symbols in terms:
            piece = Polynomial.constant(c)
            for x, d, m in symbols:
                for j in range(m):
                    piece = piece * Polynomial((x + j, d))
            total = total + piece
        polys.append(total)
    return integer_coefficients(*polys)


def integer_coefficients(*polys: Polynomial) -> Tuple[Tuple[int, ...], ...]:
    """The coefficients, lowest first, times one rational scale: the least
    that makes them all integers with no common factor."""
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    forms = [[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in polys]
    content = gcd(*(c for form in forms for c in form)) or 1
    return tuple(tuple(c // content for c in form) for form in forms)


def horner(coeffs: Sequence, x, zero=0):
    """The polynomial ``coeffs`` (lowest degree first) at ``x``; ``zero`` is
    the value of the empty sum in the coefficients' ring."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def quotient(
    top: Sequence[int], bottom: Sequence[int], n: int, shift: int = 0
) -> Fraction:
    """``top(n) / bottom(n)`` for integer coefficients; a zero ``bottom(n)`` is
    a division by zero at the term ``n + shift``."""
    d = horner(bottom, n)
    if d == 0:
        raise ZeroDivisionError(f"division by zero at n={n + shift}")
    return Fraction(horner(top, n), d)


def consecutive(coeffs: Sequence[int], start: int, count: int) -> List[int]:
    """The polynomial ``coeffs`` at ``start, ..., start + count - 1``: forward
    differences from ``horner`` at the first ``degree + 1`` points, then one
    ``accumulate`` per order of difference, additions only."""
    row, lead = [horner(coeffs, start + i) for i in range(max(len(coeffs), 1))], []
    while row:
        lead, row = lead + [row[0]], [b - a for a, b in zip(row, row[1:])]
    level = [lead.pop()] * count  # the highest difference is constant
    for first in reversed(lead):
        level = list(accumulate(level[: count - 1], initial=first))
    return level[:count]


def leaf_forms(ratio: Sequence, weight: Sequence) -> Tuple[Tuple[int, ...], ...]:
    """``(N', D', V, U)`` for a ratio ``N / D`` and a weight ``A / B`` given as
    integer coefficients: ``N' / D'`` is ``N / D`` without the common factors
    that ``B`` does not need, and ``A / B = U / (V D')`` with ``U = A D' / g``
    and ``V = B / g`` for ``g = gcd(B, D')``, a constant ``V`` where ``B``
    divides ``D``.  Each pair is scaled by ``integer_coefficients``."""
    top, bottom, a, b = (Polynomial(c) for c in (*ratio, *weight))
    g = _poly_gcd(top, bottom)
    g = poly_divmod(g, _poly_gcd(g, b))[0]
    top, bottom = integer_coefficients(*(poly_divmod(x, g)[0] for x in (top, bottom)))
    d = Polynomial(bottom)
    g = _poly_gcd(b, d)
    return top, bottom, *integer_coefficients(poly_divmod(b, g)[0], a * poly_divmod(d, g)[0])


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial(i * c for i, c in enumerate(p.coeffs) if i > 0)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return monic(a)


def monic(p: Polynomial) -> Polynomial:
    """``p`` divided by its leading coefficient."""
    return p * (Fraction(1) / p.leading)


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_distinct_roots_on_unit_interval(p: Polynomial) -> int:
    """Exact count of distinct real roots of ``p`` in [0, 1] (Sturm chain).

    The squarefree part of ``p`` is isolated first (dividing by
    ``gcd(p, p')``) so repeated roots count once, and endpoint roots are
    deflated out and counted separately so the Sturm count covers the open
    interval.  Everything runs in exact rational arithmetic: no root can
    be missed or invented, in particular even-multiplicity roots that a
    sign scan cannot see.
    """
    if p.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    if p.degree == 0:
        return 0
    endpoint_roots = int(p(0) == 0) + int(p(1) == 0)
    g = _poly_gcd(p, derivative(p))
    sf = poly_divmod(p, g)[0] if g.degree >= 1 else p
    if sf(0) == 0:
        sf = poly_divmod(sf, Polynomial((0, 1)))[0]
    if sf(1) == 0:
        sf = poly_divmod(sf, Polynomial((-1, 1)))[0]
    if sf.degree < 1:
        return endpoint_roots
    chain = [sf, derivative(sf)]
    while chain[-1].degree >= 1:
        _, r = poly_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    interior = _sign_changes([q(0) for q in chain]) - _sign_changes(
        [q(1) for q in chain]
    )
    return max(interior, 0) + endpoint_roots


def has_root_on_unit_interval(p: Polynomial) -> bool:
    """Exact decision: does ``p`` vanish anywhere on [0, 1]?"""
    if p.is_zero:
        return True
    return count_distinct_roots_on_unit_interval(p) > 0


class ParamPolynomial(Polynomial):
    """Polynomial in ``x`` with coefficients that are polynomials in ``w``.

    ``coeffs[i]`` (a ``Polynomial`` in ``w``) multiplies ``x**i``; rational
    coefficients are lifted to constants in w.  Arithmetic, equality and
    ``poly_divmod`` are ``Polynomial``'s; this class adds exact
    specialization at a rational ``w``.
    """

    __slots__ = ()

    @staticmethod
    def _coefficient(c) -> Polynomial:
        return c if type(c) is Polynomial else Polynomial((c,))

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "ParamPolynomial":
        """Lift a rational polynomial in x to constant-in-w coefficients."""
        return cls(p.coeffs)

    def specialize(self, w0: RationalLike) -> Polynomial:
        """Exact substitution of a rational value for w."""
        w0 = rational(w0)
        return Polynomial(c(w0) for c in self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for deg in range(self.degree, -1, -1):
            c = self.coefficient(deg)
            if c.is_zero:
                continue
            ctext = format_poly(c.coeffs, "w")
            if deg == 0:
                parts.append(f"({ctext})")
            elif deg == 1:
                parts.append(f"({ctext})*x")
            else:
                parts.append(f"({ctext})*x^{deg}")
        return " + ".join(parts)
