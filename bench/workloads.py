"""The benchmark's workloads: fixed catalog inputs, timed operations, checks.

Every operation is checked outside its timed span, against values computed
apart from the program (mpmath's own ``pi``, ``sqrt`` and ``hyper``) or
against properties the method must have (tail-bound soundness, the m-fold
grouped rate, deterministic stdout).  No check compares against a stored
copy of the program's output.

``build(name, bs)`` takes the freshly imported modules in ``bs`` and returns
a ``Workload``.  Building is part of set-up: it loads the catalog and turns
the records into the operations' inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


@dataclass
class Op:
    """One timed operation.

    ``run`` is timed; ``check`` is not, and returns None when the output is
    right or a message saying what is wrong.  A ``known_fault`` operation
    exercises a fault the program has today: when its check fails it counts
    as failed instead of making the run incorrect.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_fault: bool = False


@dataclass
class Workload:
    ops: List[Op]
    #: untimed checks run once after the last pass; None means right
    final_checks: List[Callable[[], Optional[str]]] = field(default_factory=list)


NAMES = ("pi-digits", "series-frontends", "verify-catalog")


def build(name: str, bs) -> Workload:
    if name == "pi-digits":
        return _pi_digits(bs)
    if name == "series-frontends":
        return _series_frontends(bs)
    if name == "verify-catalog":
        return _verify_catalog(bs)
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# Shared checks
# --------------------------------------------------------------------------


def _check_value(bs, result, expected: Callable[[], Any], digits: int) -> Optional[str]:
    """|value - expected| < 10^-digits and within the reported tail bound."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    mp = bs.mpmath.mp
    with mp.workdps(digits + 20):
        err = abs(result.value - expected())
        if err >= mp.mpf(10) ** (-digits):
            return f"error {mp.nstr(err, 3)} >= 1e-{digits}"
        if err > result.tail_bound:
            return (
                f"error {mp.nstr(err, 3)} exceeds the reported tail bound "
                f"{mp.nstr(result.tail_bound, 3)}"
            )
    return None


def _hyper_value(bs, spec) -> Callable[[], Any]:
    """mpmath's own sum of ``prod (upper)_n / (lower)_n z^n`` (implicit 1 on top)."""
    mp = bs.mpmath.mp

    def value():
        def f(q):
            return mp.mpf(q.numerator) / q.denominator

        return mp.hyper([1] + [f(x) for x in spec.upper], [f(y) for y in spec.lower], f(spec.z))

    return value


def _records(bs) -> dict:
    return {r.id: r for r in bs.catalog.load_catalog()}


# --------------------------------------------------------------------------
# pi-digits: the derived pi series through the engine's term loop
# --------------------------------------------------------------------------


def _pi_digits(bs) -> Workload:
    mp = bs.mpmath.mp
    records = _records(bs)
    # value of the seed integral each derived series sums to
    cases = (
        ("eq-1.1-derived", lambda: mp.pi * mp.sqrt(3) / 3),
        ("eq-2.11-derived", lambda: mp.pi * mp.sqrt(3) / 9),
    )
    ops = []
    for rid, expected in cases:
        ds = bs.wire.series_spec_from_dict(records[rid].series)
        for digits in (1000, 2000):
            ops.append(
                Op(
                    f"{rid}@{digits}",
                    lambda ds=ds, d=digits: bs.engine.evaluate_derived(ds, d),
                    lambda r, e=expected, d=digits: _check_value(bs, r, e, d),
                )
            )
    return Workload(ops)


# --------------------------------------------------------------------------
# series-frontends: expression and hypergeometric term generators, grouping
# --------------------------------------------------------------------------


def _summand(record) -> str:
    """The printed summand of a ``sqrt(3)/c * sum`` pi record."""
    return record.lhs["mul"][1]["expr"]


def _series_frontends(bs) -> Workload:
    mp = bs.mpmath.mp
    engine, hyper = bs.engine, bs.hyper
    records = _records(bs)
    ops = []

    # pi = sqrt(3)/60 * sum (1.1) and pi = sqrt(3)/7776 * sum (2.11)
    for rid, scale in (("eq-1.1", 60), ("eq-2.11", 7776)):
        text = _summand(records[rid])
        ops.append(
            Op(
                f"{rid}-expr@1000",
                lambda t=text: engine.evaluate_expr(t, 1000),
                lambda r, c=scale: _check_value(
                    bs, r, lambda: c * mp.pi / mp.sqrt(3), 1000
                ),
            )
        )

    for rid in ("eq-4.4", "eq-5.8-hyp", "eq-5.11", "eq-5.12"):
        spec = bs.wire.hyp_spec_from_dict(records[rid].lhs["hyp"])
        expected = _hyper_value(bs, spec)
        for form, series in (("", spec), ("-m3", hyper.group(spec, 3))):
            ops.append(
                Op(
                    f"{rid}{form}@500",
                    lambda s=series: hyper.eval_hyp(s, 500),
                    lambda r, e=expected: _check_value(bs, r, e, 500),
                )
            )

    base = bs.wire.hyp_spec_from_dict(records["eq-5.8-hyp"].lhs["hyp"])
    for m in (2, 3):
        ops.append(
            Op(
                f"eq-5.8-grouping-m{m}@300",
                lambda m=m: hyper.verify_grouping(base, m, 300),
                lambda r, m=m: _check_grouping(bs, r, base, m, 300),
            )
        )

    # Known faults (tail policy): a divergent series returned as a value, and
    # reported tail bounds smaller than the actual error.
    ops.append(
        Op(
            "divergent-fact-ratio@20",
            lambda: engine.evaluate_expr("fact(n)^2/fact(n+60)^2*1000^n", 20),
            _check_diverges(bs),
            known_fault=True,
        )
    )
    poch3 = engine.parse_term_expr("poch(1,n)^3/poch(50,n)^3*(1/2)^n")
    poch3_value = lambda: mp.hyper([1, 1, 1, 1], [50, 50, 50], mp.mpf(1) / 2)
    for digits in (10, 20, 40):
        ops.append(
            Op(
                f"poch3-bound@{digits}",
                lambda d=digits: engine.evaluate_expr(poch3, d),
                lambda r, d=digits: _check_value(bs, r, poch3_value, d),
                known_fault=True,
            )
        )
    return Workload(ops)


def _check_grouping(bs, report, base, m: int, digits: int) -> Optional[str]:
    if isinstance(report, BaseException):
        return f"raised {type(report).__name__}: {report}"
    mp = bs.mpmath.mp
    if not report.passed:
        return f"verify_grouping failed: {report.detail}"
    if abs(report.grouped_rate - m * report.base_rate) >= 0.05:
        return (
            f"grouped rate {report.grouped_rate:.4f} is not {m} x base rate "
            f"{report.base_rate:.4f} within 0.05"
        )
    with mp.workdps(digits + 20):
        exact = _hyper_value(bs, base)()
        tol = mp.mpf(10) ** (-digits)
        for label, value in (("base", report.base_value), ("grouped", report.grouped_value)):
            if abs(value - exact) >= tol:
                return f"{label} value off by {mp.nstr(abs(value - exact), 3)}"
    return None


def _check_diverges(bs) -> Callable[[Any], Optional[str]]:
    def check(result) -> Optional[str]:
        if isinstance(result, bs.engine.EvaluationError):
            return None
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}, not EvaluationError"
        return (
            f"divergent series returned {bs.mpmath.mp.nstr(result.value, 3)} "
            f"with tail bound {bs.mpmath.mp.nstr(result.tail_bound, 3)}"
        )

    return check


# --------------------------------------------------------------------------
# verify-catalog: `betaseries verify --all`, in process
# --------------------------------------------------------------------------

_VERIFY_ARGVS = (("verify", "--all"), ("verify", "--all", "--digits", "100"))


def _verify_catalog(bs) -> Workload:
    records = _records(bs)

    def run_cli(argv):
        # a fresh process starts with an empty reference cache
        bs.references._cache.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bs.cli.main(list(argv))
        return code, out.getvalue()

    # stdout of every run of the cheaper command, for the determinism check
    stdouts = []

    def check_first(result):
        if not isinstance(result, BaseException):
            stdouts.append(result[1])
        return _check_verify(bs, records, result)

    ops = [
        Op(" ".join(_VERIFY_ARGVS[0]), lambda: run_cli(_VERIFY_ARGVS[0]), check_first),
        Op(
            " ".join(_VERIFY_ARGVS[1]),
            lambda: run_cli(_VERIFY_ARGVS[1]),
            lambda r: _check_verify(bs, records, r),
        ),
    ]

    def stdout_repeats() -> Optional[str]:
        # one more untimed run, so that every run compares at least two
        stdouts.append(run_cli(_VERIFY_ARGVS[0])[1])
        if any(text != stdouts[0] for text in stdouts):
            return "verify --all stdout differs between two runs"
        return None

    return Workload(ops, [stdout_repeats])


def _check_verify(bs, records: dict, result) -> Optional[str]:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    code, text = result
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(text)
    if doc["total"] != len(records) or doc["passed"] != len(records):
        return f"{doc['passed']} of {doc['total']} records passed, catalog has {len(records)}"
    bad = [r["id"] for r in doc["records"] if r["status"] != "PASS"]
    if bad:
        return f"records not PASS: {bad}"
    mp = bs.mpmath.mp
    by_id = {r["id"]: r for r in doc["records"]}
    for rid in ("eq-1.1", "eq-2.11"):
        digits = doc["digits"] or records[rid].digits
        with mp.workdps(digits + 20):
            err = abs(mp.mpf(by_id[rid]["lhs"]) - mp.pi)
            if err >= mp.mpf(10) ** (1 - digits):
                return f"{rid} lhs is not pi to {digits} digits (error {mp.nstr(err, 3)})"
    return None
