"""Per-layer tracing from outside the package.

The traced run replaces module attributes at the points where one layer calls
the next (``engine.to_mpf``, ``hyper.sum_terms``, ``catalog.integrate``, ...)
with wrappers that count calls and time them on the calibrated clock.  Each
wrapped call is a span; a span's self time is its duration minus the time of
the wrapped spans nested inside it.  Term iterators are wrapped so that each
``next()`` is a span.  The package itself is not changed, and ``restore()``
puts every original attribute back.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction

#: per-layer metrics in report order: name -> (unit, how it is read)
METRICS = {
    "engine.sum_terms.calls": ("count", ("calls", "engine.sum_terms")),
    "engine.terms": ("count", ("count", "engine.terms")),
    "engine.sum_terms.self_s": ("s", ("self", "engine.sum_terms")),
    "engine.to_mpf.calls": ("count", ("calls", "engine.to_mpf")),
    "engine.to_mpf.s": ("s", ("total", "engine.to_mpf")),
    "engine.max_term_bits": ("bit", ("count", "engine.max_term_bits")),
    "engine.derived_terms.s": ("s", ("total", "engine.derived_terms")),
    "derive.weight_values.s": ("s", ("total", "derive.weight_values")),
    "engine.measured_rate.calls": ("count", ("calls", "engine.measured_rate")),
    "engine.measured_rate.s": ("s", ("total", "engine.measured_rate")),
    "expressions.evaluate.calls": ("count", ("calls", "expressions.evaluate")),
    "expressions.evaluate.s": ("s", ("total", "expressions.evaluate")),
    "expressions.parse_term_expr.s": ("s", ("total", "expressions.parse_term_expr")),
    "hyper.terms.s": ("s", ("total", "hyper.terms")),
    "hyper.verify_grouping.self_s": ("s", ("self", "hyper.verify_grouping")),
    "quadrature.integrate.calls": ("count", ("calls", "quadrature.integrate")),
    "quadrature.integrate.s": ("s", ("total", "quadrature.integrate")),
    "references.calls": ("count", ("calls", "references")),
    "references.self_s": ("s", ("self", "references")),
    "polynomials.has_root_on_unit_interval.calls": (
        "count",
        ("calls", "polynomials.has_root_on_unit_interval"),
    ),
    "polynomials.has_root_on_unit_interval.s": (
        "s",
        ("total", "polynomials.has_root_on_unit_interval"),
    ),
    "catalog.verify.calls": ("count", ("calls", "catalog.verify")),
    "catalog.verify.self_s": ("s", ("self", "catalog.verify")),
    "cli.main.self_s": ("s", ("self", "cli.main")),
}

#: the reference oracles the catalog calls, all counted as one layer
_REFERENCE_FUNCTIONS = (
    "asin_of",
    "atan_of",
    "beta_value",
    "catalan_accelerated",
    "gamma_combination",
    "ln2_series",
    "ln_of",
    "nth_root",
    "pi_machin",
    "sqrt_of",
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


class Tracer:
    """Counts and calibrated times per layer; see the module docstring."""

    def __init__(self, clock):
        self._now = clock.now
        self._stack = []  # per open span: [start, time of nested spans]
        self._undo = []
        #: patch points the package does not have
        self.missing = []
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()

    # ---- spans -----------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._now(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        duration = self._now() - frame[0]
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_iterator(self, name: str, fn):
        tracer = self

        def timed(iterator):
            while True:
                frame = tracer._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            # the package no longer has this boundary; its metrics read 0
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        self._patch(owner, attr, lambda fn: self._wrap(name, fn, observe))

    def patch_iterator(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._wrap_iterator(name, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- the package's layer boundaries ------------------------------------

    def install(self, bs) -> None:
        """Wrap the calls between the package's layers."""
        engine, hyper, catalog = bs.engine, bs.hyper, bs.catalog

        def count_terms(args, result):
            self.counts["engine.terms"] += result.terms_used

        def term_bits(args, result):
            bits = _bits(args[0])
            if bits > self.counts["engine.max_term_bits"]:
                self.counts["engine.max_term_bits"] = bits

        self.patch(engine, "sum_terms", "engine.sum_terms", count_terms)
        self.patch(hyper, "sum_terms", "engine.sum_terms", count_terms)
        self.patch(engine, "to_mpf", "engine.to_mpf", term_bits)
        self.patch_iterator(engine, "derived_terms", "engine.derived_terms")
        self.patch(engine, "weight_values", "derive.weight_values")
        self.patch(hyper, "measured_rate", "engine.measured_rate")
        self.patch(engine, "expr_value", "expressions.evaluate")
        self.patch(engine, "parse_term_expr", "expressions.parse_term_expr")
        self.patch_iterator(hyper.HypSeriesSpec, "terms", "hyper.terms")
        self.patch_iterator(hyper.GroupedSeries, "terms", "hyper.terms")
        self.patch(hyper, "verify_grouping", "hyper.verify_grouping")
        self.patch(catalog, "verify_grouping", "hyper.verify_grouping")
        self.patch(catalog, "integrate", "quadrature.integrate")
        self.patch(bs.references, "integrate", "quadrature.integrate")
        for fn in _REFERENCE_FUNCTIONS:
            self.patch(catalog, fn, "references")
        for owner in (bs.quadrature, bs.derive):
            self.patch(
                owner,
                "has_root_on_unit_interval",
                "polynomials.has_root_on_unit_interval",
            )
        self.patch(catalog, "verify", "catalog.verify")
        self.patch(bs.cli, "main", "cli.main")

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()

    def snapshot(self) -> dict:
        """Value of every metric in ``METRICS`` since the last ``reset()``."""
        tables = {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "count": self.counts,
        }
        return {
            metric: tables[table][key]
            for metric, (_unit, (table, key)) in METRICS.items()
        }
