"""Arbitrary-precision series evaluation with proven error bounds.

Derived, hypergeometric, grouped and printed series all compile onto one
term core, ``HypTerms``: ratio ``N(n) / D(n)`` and weight ``U(n) / (V(n)
D(n))``, integer polynomials built once per core.  ``sum_terms`` sums a core
by binary splitting (Haible and Papanikolaou, ANTS-III, 1998): leaf ``n`` is
``(N, D, V, U)`` at ``n``, two adjacent ranges merge into ``(P1 P2, Q1 Q2, V1
V2, V2 Q2 T1 + V1 P1 T2)``, and over ``[0, N)`` the sum is ``S_N = t0 T / (V
Q)`` and the next term ``t(N) = t0 P / Q``, both exact.  Summation stops at
the first ``N`` where the tail bound proven from ``HypTerms.tail_forms`` at
``|t(N)|``, plus two rounding units of ``|prefactor| 2^-W`` per core and one
more, is below ``10^-target_digits``: ``S_N 2^W`` is floored once per core,
after both operands of that division are cut to 128 bits past the quotient's
length (``_quotient``), and ``prefactor S / 2^W`` is rounded once to an mpf.
``W`` is the bit length of ``10^target_digits max(1, |prefactor|)`` plus
``GUARD_BITS``.

The proof alone picks ``N``; floats only place its start.  The closed form
``log2 |t(n)| = log2 |t0| + n log2 |c| +- sum ln |(q)_{pn}| / ln 2``
(``_Walk.size``, by ``math.lgamma``, far under a bit off) is searched by
doubling, then bisection, at O(log N) points.  Each core's leaves up to there
are then built once, as four integer columns, and split; the proof merges one
leaf on, or divides one out, until ``N`` is the first that proves.  A float
tail bound ``2^8`` past budget at ``max_terms`` is refused before any leaf.

A derived series' prefactor ``B(a+1, b+1) / z`` is proven on the same cores
(``beta_prefactor``): an exact rational where the Beta is one, else two
positive ``HypTerms`` cores summed together times a third, each proven by
the same splitting, so no factor of a derived value is taken on trust.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from mpmath import mp, mpf
from mpmath.libmp import from_rational, mpf_shift, round_nearest, round_up

from .derive import DerivedSeries
from .expressions import Product, TermExpr, parse_term_expr, pochhammer
from .polynomials import (
    Polynomial,
    consecutive,
    horner,
    integer_coefficients,
    integer_forms,
    leaf_forms,
    quotient,
)

# Unused here: the benchmark's tracer (``bench/layers.py``) patches these as
# layer boundaries; remove them together with those patches.
from .derive import weight_values  # noqa: F401
from .expressions import evaluate as expr_value  # noqa: F401


def to_mpf(x: Union[Fraction, int, float, mpf]) -> mpf:
    """Round an exact rational (or number) to an mpf at the current precision."""
    return mpf(x.numerator) / mpf(x.denominator) if isinstance(x, Fraction) else mpf(x)


#: fixed-point bits beyond the target; the rounding units must fit in them
GUARD_BITS = 64

#: digits of a non-rational Beta prefactor past the target: its radius times
#: ``|S|`` takes ``3 |S| 10^-20`` of the sum's error budget
_BETA_DIGITS = 20

DEFAULT_MAX_TERMS = 100_000

_leaf_forms = cache(leaf_forms)  # a catalog record's cores are built anew per run

#: integer coefficients, lowest degree first, of ``A`` and ``B`` in ``A / B``
IntegerForm = Tuple[Tuple[int, ...], Tuple[int, ...]]


class EvaluationError(ArithmeticError):
    """Series evaluation could not reach the requested accuracy."""


class SeriesDivergenceError(EvaluationError):
    """The term ratio tends to a limit above 1."""


def _rounded(num: int, den: int, prec: int, rnd=round_nearest) -> mpf:
    """``num / den`` rounded once to ``prec`` bits, for ``den > 0``.

    The power of two in ``den`` is taken out first and applied as a shift
    of the exponent, which is exact: ``from_rational`` on the whole ``den``
    would strip its trailing zeros a byte at a time.
    """
    k = (den & -den).bit_length() - 1
    return mp.make_mpf(mpf_shift(from_rational(num, den >> k, prec, rnd), -k))


def _from_fixed(pref: Fraction, s: int, w: int) -> mpf:
    """``pref * s / 2^w`` rounded once, within ``|pref| 2^-w`` of it."""
    return _rounded(pref.numerator * s, pref.denominator << w, max(w, s.bit_length()))


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a series evaluation.

    ``tail_bound`` bounds ``|value - prefactor * sum|``: the tail, every rounding
    and an interval prefactor's radius.  ``measured_rate`` is the digits per term
    fitted to the floats ``log2 |t(n) w(n)|`` (the largest core's) over the back
    half of the ``terms_used`` terms, zero terms left out; None below 3 points."""

    value: mpf
    terms_used: int
    tail_bound: mpf
    measured_rate: Optional[float]


def _fit_rate(points: Sequence[Tuple[int, float]]) -> Optional[float]:
    """Least-squares slope of ``-log10 |x_i|`` against ``i`` over the points
    ``(i, log2 |x_i|)``; None for fewer than 3."""
    if len(points) < 3:
        return None
    return -statistics.linear_regression(*zip(*points)).slope * math.log10(2)


def _first_zero(symbols) -> Union[int, float]:
    """The first ``n`` where a Pochhammer symbol ``(q)_{pn}`` (an integer ``q <=
    0``) has reached its zero factor ``q + pn - 1 >= 0``, else ``inf``."""
    zeros = (-q // p + 1 for p, q in symbols if p and q.denominator == 1 and q <= 0)
    return min(zeros, default=math.inf)


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

    @cached_property
    def split_forms(self) -> Tuple[Tuple[int, ...], ...]:
        """``(N, D, V, U)`` of the binary splitting's leaves: ``r = N / D``
        and ``w = U / (V D)``, ``V`` constant where ``B`` divides ``D`` (as in
        every derived core), from ``polynomials.leaf_forms``."""
        return _leaf_forms(self.integer_ratio, self.weight)

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
        denominators.  Each grouped core is built once per instance and kept.
        """
        if m == 1 or m in self._grouped:
            return self._grouped.get(m, self)
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
        core = HypTerms(self.t0, self.c**m, num, den, integer_coefficients(u, v))
        self._grouped[m] = core
        return core

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


def _merge(left: tuple, right: tuple) -> tuple:
    """``(P, Q, V, T)`` over ``[a, c)`` from those over ``[a, b)`` and ``[b, c)``."""
    (p1, q1, v1, t1), (p2, q2, v2, t2) = left, right
    return p1 * p2, q1 * q2, v1 * v2, v2 * q2 * t1 + v1 * p1 * t2


def _split(leaves: List[tuple]) -> tuple:
    """``(P, Q, V, T)`` over the leaves, merged pairwise as a balanced tree."""
    while len(leaves) > 1:
        leaves = [*map(_merge, leaves[::2], leaves[1::2]), *leaves[len(leaves) & ~1 :]]
    return leaves[0] if leaves else (1, 1, 1, 0)


def _unsplit(split: tuple, leaf: tuple) -> Optional[tuple]:
    """The split over ``[0, n)`` from those over ``[0, n + 1)`` and ``[n, n + 1)``,
    by exact divisions; None for a last term, whose ``N(n)`` is 0."""
    (p, q, v, t), (a, d, vn, u) = split, leaf
    p, q, v = p // a if a else 0, q // d, v // vn
    return (p, q, v, (t - v * p * u) // (vn * d)) if a else None


def _ln_poch(q: float, m: int) -> float:
    """``ln |(q)_m|`` by ``math.lgamma``; for an integer ``q <= 0``, only for
    ``m <= -q``, where ``|(q)_m| = (-q)! / (-q - m)!``."""
    if q <= 0 and q.is_integer():
        return math.lgamma(1 - q) - math.lgamma(1 - q - m)
    return math.lgamma(q + m) - math.lgamma(q)


class _Walk:
    """A core's leaves ``(N(n), D(n), V(n), U(n))`` of ``split_forms``, each built
    once, by one ``consecutive`` column per form, and ``log2 |t(n)|`` in closed
    form (``size``), which places the stop without a leaf; the proof on the
    leaves' integers picks it.  ``math.lgamma(x)`` is within a few ulps, so a
    symbol is off by under ``2^-47 x ln x`` bits for ``x = pn + |q| + 1``:
    ``2^-10`` at ``x = 2^32``, far below the ``2^8`` margin of ``_sum``'s refusal.

    ``end`` is the first term that is 0 (``t0`` or ``c`` is 0, or an upper
    symbol ``(q)_{pn}`` with an integer ``q <= 0`` reaches its zero factor) or
    undefined (a lower one does); no leaf is built from there on.
    """

    def __init__(self, core: HypTerms):
        core.check_convergence()
        self.core, self.leaves = core, []
        self.zero = _first_zero(core.den)  # term zero divides by D(zero - 1) = 0
        self.end = min(core.end, self.zero)
        # in parts: |t0| and |c| may be out of a float's range
        parts = ((abs(x.numerator), x.denominator) for x in (core.t0, core.c))
        self.logs = [math.log2(p) - math.log2(q) if p else 0.0 for p, q in parts]
        sides = ((1, core.num), (-1, core.den))
        self.symbols = [(sign, p, float(q)) for sign, side in sides for p, q in side]

    def extend(self, stop: int) -> Optional[int]:
        """Build the leaves up to ``stop`` or ``end``; at a zero denominator keep
        none and return the first term it leaves undefined."""
        n, stop = len(self.leaves), min(stop, self.end)
        if stop <= n:
            return None
        a, d, v, u = (consecutive(form, n, stop - n) for form in self.core.split_forms)
        zeros = [n + v.index(0)] if 0 in v else []  # B(i) = 0 at term i
        zeros += [self.zero - 1] if n < self.zero <= stop else []
        if zeros:  # the term after D(i) = 0, unless B(i) = 0 as well
            i = min(zeros)
            return i + (horner(self.core.weight[1], i) != 0)
        self.leaves += zip(a, d, v, u)
        return None

    def size(self, n: int) -> float:
        """``log2 |t(n)|`` for ``n < end``: ``log2 |t0| + n log2 |c|`` plus ``ln |(q)_{pn}|
        / ln 2`` of each upper symbol, less those of the lower."""
        logs = sum(sign * _ln_poch(q, p * n) for sign, p, q in self.symbols)
        return self.logs[0] + n * self.logs[1] + logs / math.log(2)

    def bound(self, n: int) -> Optional[Tuple[int, int]]:
        """``(Ah Q, Bv (Q - P))`` of ``HypTerms.tail_forms`` at ``n``, the tail from
        ``n`` over ``|t(n)|``: ``(0, 1)`` once terms end, None where none applies."""
        forms = self.core.tail_forms
        if n >= self.end or forms is None or n < forms[0]:
            return (0, 1) if n >= self.end else None
        p, q, top, bottom = (horner(c, n) for c in forms[1:])
        return (top * q, bottom * (q - p)) if p < q and bottom > 0 else None

    def term_logs(self, start: int, stop: int) -> List[float]:
        """``log2 |t(n) w(n)|`` for the leaves ``start <= n < stop``, ``-inf`` for a
        zero term: ``size(start)``, then the steps ``log2 |N(n) / D(n)|``."""
        logs, size = [], self.size(start) if start < len(self.leaves) else 0.0
        for a, d, v, u in self.leaves[start:stop]:
            logs.append(size + math.log2(abs(u)) - math.log2(abs(v * d)) if u else -math.inf)
            size += math.log2(abs(a)) - math.log2(abs(d)) if a else 0.0
        return logs


def _extend(walks: Sequence[_Walk], stop: int) -> None:
    """Extend every walk to ``stop``; a zero denominator raises, naming the first
    term that any core leaves undefined, whatever the order of the cores."""
    undefined = [i for walk in walks if (i := walk.extend(stop)) is not None]
    if undefined:
        raise ZeroDivisionError(f"division by zero at n={min(undefined)}")


def _proof(walks, splits, n, bits, budget, slack, rounding) -> Optional[int]:
    """The tail bound from term ``n`` in units of ``2^-bits``, proven on integers,
    plus ``slack`` times ``|S_n|``; None unless below ``budget - rounding``."""
    tail = size = 0
    for walk, split in zip(walks, splits):
        if split is None or (forms := walk.bound(n)) is None:
            return None
        (p, q, v, t), t0 = split, walk.core.t0
        top, bottom = abs(t0.numerator * p) * forms[0] << bits, abs(t0.denominator * q) * forms[1]
        if top.bit_length() > bottom.bit_length() + budget.bit_length() + 1:
            return None
        tail -= -top // bottom
        if slack:  # |S_n| from the top 96 bits of its denominator
            top, bottom = abs(t0.numerator * t), abs(t0.denominator * v * q)
            shift = max(bottom.bit_length() - 96, 0)
            size += ((top >> shift) + 1 << bits) // (bottom >> shift) + 1
    tail -= -(size + tail + rounding) * slack.numerator // slack.denominator
    return tail if tail + rounding < budget else None


def _over(walks: List[_Walk], n: int, room: float) -> float:
    """The float tail bound from term ``n`` over the budget ``2^room``, each core's
    capped at ``2^9``; ``inf`` where a core has none."""
    forms = [walk.bound(n) for walk in walks]
    terms = zip(walks, forms)
    logs = (w.size(n) + math.log2(a) - math.log2(b) - room for w, (a, b) in terms if a)
    return math.inf if None in forms else sum(2.0 ** min(x, 9) for x in logs)


def _quotient(a: int, b: int) -> Tuple[int, int]:
    """``a / b`` floored after both are cut to the bits the quotient keeps, and
    the units it may be off by, for ``b != 0``.

    ``|a / b| < 2^m`` for ``m = len(a) - len(b) + 1``; shifting both right by
    ``s`` leaves ``b' >= 2^(m + 127)``, and ``a' / b'`` within ``(|a'| + b') /
    b'^2 < 2^-125`` of ``a / b``.  So the floor is off by under 2 units, and
    under 1 when it is exact; without a shift, by under 1 unless exact.
    """
    if b < 0:
        a, b = -a, -b
    shift = max(b.bit_length() - max(abs(a).bit_length() - b.bit_length() + 1, 0) - 128, 0)
    quotient, rem = divmod(a >> shift, b >> shift)
    return quotient, (rem != 0) + (shift > 0)


def _sum(
    cores: Sequence[HypTerms], target_digits: int, pref: Fraction, slack: Fraction, max_terms
) -> Tuple[int, int, int, int, List[_Walk]]:
    """``(total, bits, lost, N, walks)``: ``|S - total 2^-bits| <= lost 2^-bits``
    for the cores' sum ``S``, with ``|pref| (lost + 1) 2^-bits`` plus ``slack``
    times ``|pref S|`` below ``10^-target_digits``, and the cores' walks."""
    # budget = 10^-d / |pref| in units of 2^-bits, and at least 10^-d
    scale = 10**target_digits * abs(pref.numerator)
    wide = 10**target_digits * max(abs(pref.numerator), pref.denominator)
    bits = wide.bit_length() - pref.denominator.bit_length() + 1 + GUARD_BITS
    budget = (pref.denominator << bits) // scale
    walks = [_Walk(core) for core in cores]
    for core in cores:  # terms that do not end stop only at a tail bound, read from n0 on
        if core.end == math.inf and (n0 := core.tail_forms[0]) > max_terms:
            raise EvaluationError(f"no tail bound before term {n0} of {max_terms}")
    # two units per final division, one for the rounding to an mpf
    rounding, room = 1 + 2 * len(walks), math.log2(budget) - bits

    start = n = 0  # doubling until the floats put the tail in budget, then bisecting
    while (excess := _over(walks, n, room)) >= 1 and n < max_terms:
        start, n = n + 1, min(max(2 * n, 4), max_terms)
    if 2**8 < excess < math.inf:  # 2^8 past the budget at max_terms: no leaf can help
        raise EvaluationError(f"tail target not reached within {max_terms} terms")
    while start < n:  # the first where it holds, if it holds from there on
        mid = (start + n) // 2
        start, n = (start, mid) if _over(walks, mid, room) < 1 else (mid + 1, n)
    _extend(walks, n)
    splits = [_split(walk.leaves) for walk in walks]
    while (tail := _proof(walks, splits, n, bits, budget, slack, rounding)) is None:
        if n == max_terms:
            raise EvaluationError(f"tail target not reached within {max_terms} terms")
        _extend(walks, n + 1)
        splits = [_merge(s, w.leaves[n]) if n < len(w.leaves) else s for s, w in zip(splits, walks)]
        n += 1
    while n:  # step back while the term before proves too
        pairs = zip(splits, walks)
        prior = [s if n > len(w.leaves) else _unsplit(s, w.leaves[n - 1]) for s, w in pairs]
        if (before := _proof(walks, prior, n - 1, bits, budget, slack, rounding)) is None:
            break
        splits, tail, n = prior, before, n - 1
    pairs = zip((walk.core.t0 for walk in walks), splits)
    parts = [_quotient(a.numerator * t << bits, a.denominator * v * q) for a, (_, q, v, t) in pairs]
    total, lost = sum(part for part, _ in parts), tail + sum(units for _, units in parts)
    return total, bits, lost, n, walks


#: a prefactor: exact (an ``int`` is one), or a rational midpoint and radius
Prefactor = Union[Fraction, Tuple[Fraction, Fraction]]


def sum_terms(
    cores: Sequence[HypTerms],
    target_digits: int,
    prefactor: Optional[Prefactor] = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalResult:
    """Sum the cores, term ``n`` being the sum of their terms ``n``, until the
    proven error bound falls below ``10^-target_digits``.

    ``prefactor`` scales the value and the target, so the bound refers to the
    reported value; a ``(midpoint, radius)`` pair is taken at its midpoint,
    the bound covering its radius times ``|S|``.  Terms that end sum exactly.
    The bound holds two units of ``|prefactor| 2^-W`` per core for the final
    division (``_quotient``) and one for the rounding to an mpf.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    prefactor, radius = prefactor if isinstance(prefactor, tuple) else (prefactor, 0)
    pref = Fraction(1 if prefactor is None else prefactor)
    if not pref:
        raise ValueError("prefactor must be nonzero")
    slack = Fraction(radius) / abs(pref)  # the radius over the midpoint
    total, bits, lost, n, walks = _sum(cores, target_digits, pref, slack, max_terms)
    bound = abs(pref.numerator) * (lost + 1), pref.denominator << bits
    logs = (walk.term_logs(n // 2, n) for walk in walks)
    logs = itertools.zip_longest(range(n // 2, n), *logs, fillvalue=-math.inf)
    rate = _fit_rate([(i, x) for i, *xs in logs if (x := max(xs)) > -math.inf])
    return EvalResult(_from_fixed(pref, total, bits), n, _rounded(*bound, 53, round_up), rate)


def _proven_sum(cores: Sequence[HypTerms], target_digits: int, pref: Fraction) -> Prefactor:
    """The sum ``S`` of cores whose ratios are at most 1/2 as ``(midpoint,
    radius)``, the radius times ``|pref|`` below ``10^-target_digits``."""
    # such tails are at most twice the term: the stop comes before any limit
    total, bits, lost, *_ = _sum(cores, target_digits, pref, Fraction(0), math.inf)
    return Fraction(total, 1 << bits), Fraction(lost, 1 << bits)


@cache
def _beta_cores(u: Fraction, v: Fraction) -> Tuple[Tuple[HypTerms, ...], Optional[HypTerms]]:
    """The cores of ``S(u, v)`` and ``S(v, u)``, and of ``(1/2)^f`` unless ``f = 0``."""
    half, f = Fraction(1, 2), u + v - math.floor(u + v)
    cores = tuple(HypTerms(1 / x, half, ((1, u + v),), ((1, x + 1),)) for x in (u, v))
    return cores, HypTerms(Fraction(1), half, ((1, -f),), ((1, Fraction(1)),)) if f else None


def beta_prefactor(p: Fraction, q: Fraction, scale: Fraction, target_digits: int) -> Prefactor:
    """``scale B(p, q)`` for positive rationals: exact where it is rational,
    else a ``(midpoint, radius)`` pair with a radius below ``3 10^-target_digits``.

    ``p = u + j`` and ``q = v + k`` with ``u, v`` in (0, 1] give ``B(p, q) = r
    B(u, v)``, ``r = (u)_j (v)_k / (u+v)_{j+k}`` exact.  ``B(1, v) = 1 / v``.
    Otherwise ``B(u, v) = 2^-(u+v) (S(u, v) + S(v, u))`` (DLMF 8.17.8: ``2^-(u+v)
    S(u, v)`` is ``B_{1/2}(u, v)``), ``S(x, y) = sum_n (x+y)_n / ((x+1)_n 2^n) /
    x``, whose ratio ``(x+y+n) / (2 (x+1+n))`` is at most 1/2.  ``2^-(u+v) =
    2^-m P`` for ``m = floor(u+v)`` and ``P = (1/2)^f = sum_n (-f)_n / n! 2^-n``,
    ``f = u+v-m``.  The two ``S`` cores are summed together, ``P`` after them
    at its own radius; each is proven by ``_sum``.
    """
    j, k = math.ceil(p) - 1, math.ceil(q) - 1
    u, v = p - j, q - k
    scale = scale * pochhammer(u, j) * pochhammer(v, k) / pochhammer(u + v, j + k)
    if u == 1 or v == 1:
        return scale / (v if u == 1 else u)
    scale /= 2 ** math.floor(u + v)
    cores, power = _beta_cores(u, v)
    s, s_radius = _proven_sum(cores, target_digits, scale)
    if power is None:
        return scale * s, abs(scale) * s_radius
    x, x_radius = _proven_sum([power], target_digits, scale * s)
    return scale * s * x, abs(scale) * (abs(x) * s_radius + (s + s_radius) * x_radius)


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

    The prefactor ``B(a+1, b+1) / z`` is ``beta_prefactor``'s: exact where it
    is rational, else a midpoint proven within ``3 10^-(target_digits +
    _BETA_DIGITS)``, whose radius the sum's bound covers times ``|S|``.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    pref = beta_prefactor(ds.a + 1, ds.b + 1, 1 / ds.z, target_digits + _BETA_DIGITS)
    return sum_terms([derived_core(ds)], target_digits, prefactor=pref)


@cache
def product_core(p: Product) -> HypTerms:
    """The core of one printed product, with ``a / b`` as its weight."""
    return HypTerms(Fraction(1), p.c, p.num, p.den, integer_coefficients(p.a, p.b))


def evaluate_expr(expr: Union[TermExpr, str], target_digits: int) -> EvalResult:
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
