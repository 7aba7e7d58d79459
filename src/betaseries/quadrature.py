"""Endpoint-singularity-aware quadrature on [0, 1].

Integrands have the shape ``x^a (1-x)^b N(x) / D(x)`` with rational
``a, b > -1`` and two polynomials: a numerator ``N`` and a denominator ``D``
with no root on [0, 1], which an exact root scan checks.  There is no
separate kernel form: the kernel denominator ``z - x^k (1-x)^s`` is the
expanded polynomial ``polynomials.kernel_polynomial(z, k, s)``, and the
root scan rejects it exactly when ``0 <= z <= M(k, s)``, the double root
at ``z = M`` included.

The double-exponential substitution ``x = (1 + tanh((pi/2) sinh t)) / 2``
turns the algebraic endpoint singularities into doubly exponential decay of
the transformed integrand, so the trapezoid rule in ``t`` converges
superlinearly as the step is halved.  The step is halved (reusing previous
nodes) until two successive levels agree to ``target_digits + 5``; failure
to converge within ``max_levels`` halvings raises.

The transform of a node does not depend on the problem.  For each ``t >= 0``
the values ``(x, 1-x, pi cosh t, -ln x, -ln(1-x))`` are computed once per
working precision (``mp.prec``) and kept in that precision's node table;
every later integral at that precision reads them from there.  The nodes at
``t`` and ``-t`` are evaluated together from one entry, since the node at
``-t`` is the node at ``t`` with ``x`` and ``1-x`` (and their logarithms)
swapped.  Only ``x^a (1-x)^b``, the numerator and the denominator are
evaluated per problem.  When ``a`` or ``b`` has a denominator above 2,
``x^a (1-x)^b`` is ``exp(a ln x + b ln(1-x))``, one exponential where two
general powers would each take a logarithm and an exponential; integer and
half-integer exponents keep mpmath's cheaper powers.  Every value a node
contributes is computed the same way whether its transform is fresh or
read from a table, so results do not depend on what the tables already
hold.  Where the exponential is taken, results are not bit-identical to
powers rounded one by one; they agree with them to about ``10^-(d+15)``
relative.

The node tables live in ``_cache``, the process-wide cache of
precision-keyed constants that ``references`` also uses for its reference
values.  They last as long as the process, or until ``_cache.clear()``; a
table keeps the mantissa and exponent of each value (about 0.64 MB for
the 901 nodes of ``verify --all --digits 100``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from mpmath import mp, mpf

from .polynomials import Polynomial, has_root_on_unit_interval, rational


class QuadratureError(ArithmeticError):
    """The level-doubling scheme did not reach the requested agreement."""


@dataclass(frozen=True)
class QuadratureProblem:
    """``int_0^1 x^a (1-x)^b * numerator(x) / denominator(x) dx``."""

    a: Fraction
    b: Fraction
    numerator: Polynomial = Polynomial((1,))
    denominator: Polynomial = Polynomial((1,))

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        if self.a <= -1 or self.b <= -1:
            raise ValueError("need a > -1 and b > -1 for integrability")
        if self.numerator.is_zero:
            raise ValueError("numerator is the zero polynomial")
        if self.denominator.is_zero:
            raise ValueError("denominator is the zero polynomial")
        if has_root_on_unit_interval(self.denominator):
            raise ValueError("denominator has a root on [0, 1]")


def _horner(coeffs: Tuple[mpf, ...], x: mpf) -> mpf:
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


#: The process-wide cache of precision-keyed constants: the node tables of
#: this module and the reference values of ``references``, which imports it.
_cache: dict = {}


def _node(table: dict, t: mpf) -> Tuple[mpf, mpf, mpf, mpf, mpf]:
    """``(x, 1-x, pi cosh t, -ln x, -ln(1-x))`` of the node at ``t >= 0``.

    ``table`` is the node table of ``mp.prec``.  The values are computed on
    the first call for ``t`` and kept there, keyed by ``float(t)`` (exact,
    since ``t = j / 2^level``), as the mantissa and exponent of each: all
    five are positive and normalized, so the sign is 0 and the bit count
    is the mantissa's.  With ``u = (pi/2) sinh t`` and ``e = exp(-2u)``,
    ``1-x = e / (1+e)`` is computed directly, not by subtraction, so it
    keeps full relative precision as ``x`` approaches 1; likewise
    ``-ln x = log1p(e)`` and ``-ln(1-x) = 2u - ln x``.
    """
    key = float(t)
    entry = table.get(key)
    if entry is None:
        u = mp.pi / 2 * mp.sinh(t)
        em = mp.exp(-2 * u)
        nlx = mp.log1p(em)
        values = (1 / (1 + em), em / (1 + em), mp.pi * mp.cosh(t), nlx, 2 * u + nlx)
        entry = table[key] = tuple(part for v in values for part in v._mpf_[1:3])
    return tuple(
        mp.make_mpf((0, man, exp, man.bit_length()))
        for man, exp in zip(entry[0::2], entry[1::2])
    )


def integrate(
    problem: QuadratureProblem,
    target_digits: int,
    max_levels: int = 20,
) -> mpf:
    """Value of the integral, correct to ``target_digits`` decimal digits."""
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    wp = target_digits + 15
    with mp.workdps(wp):
        a = mpf(problem.a.numerator) / problem.a.denominator
        b = mpf(problem.b.numerator) / problem.b.denominator
        num_coeffs, den_coeffs = (
            tuple(mpf(c.numerator) / c.denominator for c in poly.coeffs)
            for poly in (problem.numerator, problem.denominator)
        )
        nodes = _cache.setdefault(("tanh-sinh nodes", mp.prec), {})

        if max(problem.a.denominator, problem.b.denominator) > 2:
            # A general power costs a logarithm and an exponential; with the
            # logarithms tabled, x^a (1-x)^b costs one exponential.
            na, nb = -a, -b

            def powers(x: mpf, omx: mpf, nlx: mpf, nlomx: mpf) -> mpf:
                return mp.exp(na * nlx + nb * nlomx)

        else:
            # Integer and half-integer powers take mpmath's cheaper
            # repeated-squaring and square-root paths.

            def powers(x: mpf, omx: mpf, nlx: mpf, nlomx: mpf) -> mpf:
                return x**a * omx**b

        def weighted(x: mpf, omx: mpf, pc: mpf, nlx: mpf, nlomx: mpf) -> mpf:
            """Transformed integrand times dx/dt at the node ``(x, 1-x)``."""
            weight = pc * x * omx
            val = (
                powers(x, omx, nlx, nlomx)
                * _horner(num_coeffs, x)
                / _horner(den_coeffs, x)
            )
            return val * weight

        trunc_tol = mpf(10) ** (-(wp + 5))
        agree_tol = mpf(10) ** (-(target_digits + 5))
        t_cap = mpf(15)

        def pair_sum(h: mpf, start: int, step: int) -> mpf:
            """Sum over j = start, start+step, ... of the nodes at +-j*h.

            The node at -t is the node at t with x and 1-x (and their
            logarithms) swapped, so its weight is ``pc * (1-x) * x``,
            rounded in that order.
            """
            total = mpf(0)
            small = 0
            j = start
            while j * h <= t_cap:
                x, omx, pc, nlx, nlomx = _node(nodes, j * h)
                contrib = weighted(x, omx, pc, nlx, nlomx) + weighted(
                    omx, x, pc, nlomx, nlx
                )
                total += contrib
                if abs(contrib) < trunc_tol:
                    small += 1
                    if small >= 3:
                        break
                else:
                    small = 0
                j += step
            return total

        h = mpf(1)
        estimate = h * (weighted(*_node(nodes, mpf(0))) + pair_sum(h, 1, 1))
        previous = None
        for _level in range(max_levels):
            if previous is not None and abs(estimate - previous) <= agree_tol * max(
                mpf(1), abs(estimate)
            ):
                return estimate
            previous = estimate
            h = h / 2
            estimate = previous / 2 + h * pair_sum(h, 1, 2)
        raise QuadratureError(
            f"no convergence to {target_digits} digits after {max_levels} levels"
        )
