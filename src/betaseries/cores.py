"""The hypergeometric term core: the one type of every series the package sums.

A core is ``sum_n t(n) w(n)`` with ``t(n) = t0 c^n prod (q)_{pn} / prod
(q')_{p'n}`` and a rational weight ``w(n) = A(n) / B(n)``.  Each front end
builds its cores (``derive.DerivedSeries.core``, ``hyper``'s specs and
grouped forms, ``expressions.parse_term_expr``, ``engine``'s Beta
prefactor), and ``engine.sum_terms`` sums them.  ``interned`` keeps the
first core built with given fields for the life of the process, so the
integer forms that a core builds once serve every rebuild: it is the one
memo of exact work, beside ``quadrature._cache`` for what precision keys.
A fresh start clears both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

from .polynomials import (
    coeff_product,
    coeff_sum,
    integer_coefficients,
    integer_forms,
    leaf_forms,
    quotient,
)

#: integer coefficients, lowest degree first, of ``A`` and ``B`` in ``A / B``
IntegerForm = Tuple[Tuple[int, ...], Tuple[int, ...]]


class EvaluationError(ArithmeticError):
    """Series evaluation could not reach the requested accuracy."""


class SeriesDivergenceError(EvaluationError):
    """The term ratio tends to a limit above 1."""


def _first_zero(symbols) -> Union[int, float]:
    """The first ``n`` where a Pochhammer symbol ``(q)_{pn}`` (an integer ``q <=
    0``) has reached its zero factor ``q + pn - 1 >= 0``, else ``inf``."""
    zeros = (-q // p + 1 for p, q in symbols if p and q.denominator == 1 and q <= 0)
    return min(zeros, default=math.inf)


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

    @cached_property
    def split_forms(self) -> Tuple[Tuple[int, ...], ...]:
        """``(N, D, V, U)`` of the binary splitting's leaves: ``r = N / D``
        and ``w = U / (V D)``, ``V`` constant where ``B`` divides ``D`` (as in
        every derived core), from ``polynomials.leaf_forms``."""
        return leaf_forms(self.integer_ratio, self.weight)

    def ratio(self, n: int) -> Fraction:
        """``t(n + 1) / t(n)``; a lower symbol that is 0 at ``n + 1`` raises."""
        return quotient(*self.integer_ratio, n, 1)

    def limit(self) -> Fraction:
        """``|L| = |c| prod p^p / prod p'^p'``: the limit of ``|r(n)|`` when the
        lengths in ``num`` and ``den`` add up alike."""
        limit = abs(self.c) * math.prod(p**p for p, _ in self.num)
        return limit / math.prod(p**p for p, _ in self.den)

    @property
    def end(self) -> Union[int, float]:
        """The first term that is 0, ``inf`` while the terms go on: ``t0`` or
        ``c`` is 0, or a numerator symbol reaches its zero factor."""
        return 0 if not self.t0 else 1 if not self.c else _first_zero(self.num)

    def check_convergence(self) -> None:
        """Raise unless ``|r(n)|`` tends to a limit below 1 or the terms end."""
        excess = sum(p for p, _ in self.num) - sum(p for p, _ in self.den)
        if self.end < math.inf or excess < 0:
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
        # each factor n + x is the rising factorial (x + n)_1
        p, q = [(1, 1, 1)] * d, [(0, 1, 1)] * d
        for a, b in itertools.zip_longest(above, below):
            if a is None or a > b:  # an unpaired lower factor, or a pair above 1
                q.append((b, 1, 1))
                if a is not None:
                    p.append((a, 1, 1))
        sign = 1 if bottom[-1] > 0 else -1
        floor = tuple(min(sign * c, 0) for c in bottom[:-1]) + (abs(bottom[-1]),)
        forms = integer_forms([(self.limit(), p)], [(1, q)])
        return (n0, *forms, tuple(map(abs, top)), floor)

    def grouped(self, m: int) -> "HypTerms":
        """Term ``n`` is ``sum_{j<m} t(mn+j) w(mn+j)``.

        The outer term is ``t(mn)``: each symbol ``(q)_{pn}`` becomes
        ``(q)_{pmn}``, so ``(p, q)`` maps to ``(pm, q)``, and ``c`` becomes
        ``c^m``.  The weight is ``sum_{j<m} w(mn+j) prod_{i<j} r(mn+i)``,
        composed once at ``mn + j`` into one ``U(n) / V(n)`` over the common
        denominator ``prod_{i<m-1} D(mn+i)`` times the base weights'
        denominators.  Each grouped core is interned and kept by ``m``.
        """
        if m == 1 or m in self._grouped:
            return self._grouped.get(m, self)
        top, bottom = self.integer_ratio
        a, b = self.weight

        def at(coeffs: Sequence[int], j: int) -> Tuple[int, ...]:
            """The polynomial ``coeffs`` at ``mn + j``, by Horner on integers."""
            acc = ()
            for c in reversed(coeffs):
                acc = coeff_sum(coeff_product(acc, (j, m)), (c,))
            return acc

        # nested from the last summand: w(j) + r(j) (w(j+1) + r(j+1) (...))
        u, v = at(a, m - 1), at(b, m - 1)
        for j in range(m - 2, -1, -1):
            bj, dv = at(b, j), coeff_product(at(bottom, j), v)
            u = coeff_product(bj, coeff_product(at(top, j), u))
            u = coeff_sum(coeff_product(at(a, j), dv), u)
            v = coeff_product(bj, dv)
        num = tuple((p * m, q) for p, q in self.num)
        den = tuple((p * m, q) for p, q in self.den)
        self._grouped[m] = interned(HypTerms(self.t0, self.c**m, num, den, integer_coefficients(u, v)))
        return self._grouped[m]

    @cached_property
    def _grouped(self) -> dict:
        """The cores ``grouped`` has built, by ``m``."""
        return {}

    def rate(self) -> float:
        """Digits per term ``log10(1/|L|)``, with ``L = c prod p^p / prod p'^p'``
        the limit of ``r(n)`` (the lengths in ``num`` and ``den`` add up alike)."""
        if self.c == 0:
            raise ValueError("z = 0 has no geometric rate")
        limit = self.limit()
        return math.log10(limit.denominator) - math.log10(limit.numerator)


@cache
def interned(core: HypTerms) -> HypTerms:  # the first core built with these fields
    return core
