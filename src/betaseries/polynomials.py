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
``w``.  The kernel facts that seed solving, the catalog and the CLI share
live here too: ``expand_kernel``, ``kernel_polynomial`` and
``convergence_bound``.

Rationals are ``fractions.Fraction``s: always reduced, with a positive
denominator and the canonical zero ``Fraction(0, 1)``.  Work whose results
are integers runs on ``IntPoly``s, tuples of ints, with no rational at all:
sums and products (``coeff_sum`` and ``coeff_product``, which serve the
coefficients of ``Polynomial`` too), primitive parts, a sign-preserving
pseudo-remainder, the gcd by a primitive remainder sequence (Collins, J.
ACM 1967; Brown, J. ACM 1971) and exact division by a primitive divisor.
They build the term cores' forms in ``n`` (``integer_forms``,
``leaf_forms``), which ``horner``, ``quotient`` and ``consecutive``
evaluate, and the Sturm chains that count roots on [0, 1].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
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
        object.__setattr__(self, "coeffs", _trim(map(self._coefficient, coeffs)))

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
        return type(self)(coeff_sum(self.coeffs, other.coeffs))

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
        return type(self)(coeff_product(self.coeffs, other.coeffs))

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
    inv = 1 / lead
    quot, rem = _long_division(dividend.coeffs, divisor.coeffs, lambda c: c * inv)
    return type(dividend)(quot), type(dividend)(rem)


def _long_division(a: Sequence, b: Sequence, step) -> Tuple[list, list]:
    """``(q, r)`` with ``a = b q + r`` and ``r`` shorter than ``b``, for
    coefficient sequences, lowest first, in any ring: each coefficient of
    ``q`` is ``step`` of the leading one left, its quotient by ``lead(b)``."""
    r, top = list(a), len(b) - 1
    q = [0] * max(len(a) - top, 0)
    for shift in reversed(range(len(q))):
        c = q[shift] = step(r[shift + top])
        if c:
            for i, y in enumerate(b):
                r[shift + i] -= c * y
    return q, r[:top]


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


#: ints, lowest degree first, with no trailing zeros: ``()`` is 0
IntPoly = Tuple[int, ...]


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def coeff_sum(a: Sequence, b: Sequence) -> tuple:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def coeff_product(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def primitive(a: IntPoly) -> IntPoly:
    """``a`` divided by the gcd of its coefficients, its sign kept."""
    g = gcd(*a)
    return tuple(c // g for c in a) if g > 1 else a


def pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """``K a mod b`` for ``K = |lead(b)|^(deg a - deg b + 1)``: the remainder
    over Q times ``K > 0``, so with its signs; ``K a / b`` divides exactly."""
    k = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
    return _trim(_long_division([k * c for c in a], b, lambda c: c // b[-1])[1])


def int_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The gcd over Q, primitive with a positive leading coefficient, by the
    primitive remainder sequence; ``()`` when ``a`` and ``b`` are both 0."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(pseudo_remainder(a, b))
    return tuple(-c for c in a) if a and a[-1] < 0 else a


def exact_quotient(a: IntPoly, g: IntPoly) -> IntPoly:
    """``a / g`` for a primitive ``g`` that divides ``a`` over Q: by Gauss's
    lemma the quotient has integer coefficients, each an exact division."""
    return tuple(_long_division(a, g, lambda c: c // g[-1])[0])


def integer_coefficients(*polys: Sequence[Fraction]) -> Tuple[IntPoly, ...]:
    """Coefficient sequences, lowest first, times one positive rational scale:
    the least that makes them all integers with no common factor."""
    scale = lcm(*(c.denominator for p in polys for c in p))
    forms = [[c.numerator * (scale // c.denominator) for c in p] for p in polys]
    content = gcd(*(c for form in forms for c in form)) or 1
    return tuple(tuple(c // content for c in form) for form in forms)


def integer_forms(*sums) -> Tuple[IntPoly, ...]:
    """Sums of rising factorials in ``n`` as integer coefficients, lowest first.

    Each sum is a sequence of terms ``(c, symbols)``: the rational ``c``
    times the product, over its symbols ``(x, d, m)``, of the rising
    factorials ``(x + dn)_m = prod_{j<m} (x + j + dn)``.  All the returned
    tuples are scaled by one positive rational, so the quotient of two of them
    at any ``n`` is the quotient of the two sums.  Term cores evaluate them at
    each ``n`` and multiply the values by binary splitting: integer work.
    """
    pieces = []  # (i, P, d): the term P / d of sum i
    for i, terms in enumerate(sums):
        for c, symbols in terms:
            piece, den = _trim((c.numerator,)), c.denominator
            for x, d, m in symbols:
                u, v = x.numerator, x.denominator
                for j in range(m):
                    piece = coeff_product(piece, _trim((u + j * v, d * v)))
                den *= v**m
            pieces.append((i, piece, den))
    scale, forms = lcm(*(den for _, _, den in pieces)), [()] * len(sums)
    for i, piece, den in pieces:
        forms[i] = coeff_sum(forms[i], coeff_product(piece, (scale // den,)))
    return integer_coefficients(*forms)


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


def leaf_forms(ratio: Sequence[IntPoly], weight: Sequence[IntPoly]) -> Tuple[IntPoly, ...]:
    """``(N', D', V, U)`` for a ratio ``N / D`` and a weight ``A / B`` given as
    integer coefficients: ``N' / D'`` is ``N / D`` without the common factors
    that ``B`` does not need, and ``A / B = U / (V D')`` with ``U = A D' / g``
    and ``V = B / g`` for ``g = gcd(B, D')``, a constant ``V`` where ``B``
    divides ``D``.  Each pair is on one integer scale without common content
    (``integer_coefficients``), as ``N / D`` must be given."""
    top, bottom, a, b = (*ratio, *weight)
    g = int_gcd(top, bottom)
    g = exact_quotient(g, int_gcd(g, b))
    top, bottom = exact_quotient(top, g), exact_quotient(bottom, g)
    g = int_gcd(b, bottom)
    return top, bottom, *integer_coefficients(
        exact_quotient(b, g), coeff_product(a, exact_quotient(bottom, g))
    )


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_distinct_roots_on_unit_interval(p: Polynomial) -> int:
    """Exact count of distinct real roots of ``p`` in [0, 1] (Sturm chain).

    The chain, a primitive remainder sequence on integers, starts from the
    squarefree part ``p / gcd(p, p')``: repeated roots count once, and no
    even-multiplicity root (which a sign scan misses) is lost.  Every root
    in (0, 1] drops one sign change; one at 0 drops none and is added apart.
    """
    if p.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    (a,) = integer_coefficients(p.coeffs)
    if len(a) == 1:
        return 0
    sf = exact_quotient(a, int_gcd(a, _derivative(a)))
    chain = [sf, _derivative(sf)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in primitive(pseudo_remainder(*chain[-2:]))))
    return _sign_changes(q[0] for q in chain) - _sign_changes(map(sum, chain)) + (sf[0] == 0)


def _derivative(a: IntPoly) -> IntPoly:
    return tuple(i * c for i, c in enumerate(a))[1:]


def has_root_on_unit_interval(p: Polynomial) -> bool:
    """Exact decision: does ``p`` vanish anywhere on [0, 1]?"""
    return p.is_zero or count_distinct_roots_on_unit_interval(p) > 0


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
