"""Where a sum's stop search starts: Newton steps on its float tail bound.

``engine._sum`` proves its stop ``N`` on integers; floats only say where to
try first.  For the term cores' walks (``engine._Walk``), ``over`` is the
float tail bound from term ``n`` over the error budget ``2^room``, in
``log2`` and uncapped: ``log2 sum_cores 2^(size(n) + log2(a / b) - room)``
for each core's ``tail_forms`` bound ``a / b`` and closed-form term size
``size(n)``.  ``place`` looks for the first ``n`` where it is below 0, by
Newton steps whose slope is the exact term ratio ``log2 |N(n) / D(n)|`` of
the core whose bound is the largest.  It ends on a bracket, ``n - 1`` above
and ``n`` below: the start that doubling and bisection found, in about 4
closed-form evaluations a sum of the benchmark's workloads instead of 12
to 17.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

from .polynomials import horner


def over(walks: Sequence, n: int, room: float) -> Tuple[float, float]:
    """``log2`` of the float tail bound from term ``n`` over the budget
    ``2^room`` (``inf`` where a core has none, ``-inf`` once every core's
    terms end), and the Newton slope ``log2 |N(n) / D(n)|`` of the core
    whose bound is the largest (``0.0`` where there is none)."""
    forms = [walk.bound(n) for walk in walks]
    if None in forms:
        return math.inf, 0.0
    terms = zip(walks, forms)
    logs = [w.size(n) + math.log2(a) - math.log2(b) - room if a else -math.inf for w, (a, b) in terms]
    if (top := max(logs, default=-math.inf)) == -math.inf:
        return top, 0.0
    a, d = (horner(c, n) for c in walks[logs.index(top)].core.split_forms[:2])
    slope = math.log2(abs(a)) - math.log2(abs(d)) if a else -math.inf
    return top + math.log2(sum(2.0 ** (x - top) for x in logs)), slope


def _first_bound(walk) -> Union[int, float]:
    """The first ``n`` where the walk's tail bound may hold: the ``n0`` of its
    ``tail_forms``, or its end where the terms end before it."""
    forms = walk.core.tail_forms
    return min(walk.end, forms[0] if forms else math.inf)


def place(walks: Sequence, room: float, max_terms) -> Optional[int]:
    """The first ``n`` whose float tail bound fits the budget ``2^room``, at
    most ``max_terms``; None where the bound at ``max_terms`` is ``2^8`` past
    the budget, so that no leaf can help.

    Every ``n`` before the largest ``_first_bound`` fails, so the search
    starts there.  Each step goes from ``n`` to the first integer past the
    tangent's root, or from an ``n`` that fits to the one before it; where a
    bound is still missing or the terms still rise, it doubles ``n``.  A step
    that leaves the bracket of the last ``n`` that failed and the first that
    fit bisects it instead.  The search stops when ``n - 1`` fails and ``n``
    fits.
    """
    n = min(max(map(_first_bound, walks), default=0), max_terms)
    lo, hi = n - 1, math.inf  # lo fails, hi fits
    while hi - lo > 1 and lo < max_terms:
        log2_over, slope = over(walks, n, room)
        lo, hi = (lo, n) if log2_over < 0 else (n, hi)
        if slope < 0:
            guess = math.floor(n - log2_over / slope) + (log2_over >= 0)
        else:
            guess = 2 * n + 1
        n = min(guess if lo < guess < hi else (lo + hi) // 2, max_terms)
    return None if lo == max_terms and 8 < log2_over < math.inf else min(hi, max_terms)
