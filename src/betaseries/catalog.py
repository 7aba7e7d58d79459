"""Identity catalog: registry, recipe evaluator, and verification driver.

Every identity ships as a JSON record (``data/catalog.json``) whose two
sides are *recipes*: small composition trees over the series engines and
the independent reference oracles.  Verification evaluates both sides at
the requested precision and compares; series-shaped left sides also report
how many terms were needed and the measured convergence rate.

Record kinds:

* ``numeric``  -- lhs recipe vs rhs recipe, ``|lhs - rhs| < 10^-digits``.
* ``duality``  -- a derived-series spec; the series value must match the
  quadrature of the seed integral, and optionally a closed-form recipe.
  The exact identity ``P * Q == z - x^k (1-x)^s``, which ``DerivedSeries``
  checks, takes the place of a quadrature of the kernel form.
* ``exact``    -- a named exact polynomial-identity check (no tolerance).
* ``grouping`` -- exact partial-sum telescoping of the m-step grouped form
  against its base series, plus numeric value / rate-multiple agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from typing import Callable, Dict, List, Optional, Tuple

from mpmath import mp, mpf

from .derive import solve_seed_param
from .engine import (
    EvalResult,
    evaluate_derived,
    evaluate_expr,
    predicted_rate,
)
from .hyper import GroupedSeries, eval_hyp, first_mismatch, group, verify_grouping
from .polynomials import ParamPolynomial, Polynomial, kernel_polynomial, rational
from .quadrature import QuadratureProblem, integrate
from .references import (
    asin_of,
    atan_of,
    beta_value,
    catalan_accelerated,
    gamma_combination,
    ln2_series,
    ln_of,
    nth_root,
    pi_machin,
    sqrt_of,
)
from .wire import bound_str, float_str, hyp_spec_from_dict, rounded_rate, series_spec_from_dict


@dataclass(frozen=True)
class IdentityRecord:
    """One record of ``data/catalog.json``, whose fields are exactly these."""

    id: str
    kind: str
    digits: int
    provenance: str = ""
    lhs: Optional[dict] = None
    rhs: Optional[dict] = None
    series: Optional[dict] = None
    base: Optional[dict] = None
    m: Optional[int] = None
    check_terms: int = 50
    check: Optional[str] = None
    notes: str = ""


@dataclass(frozen=True)
class VerifyReport:
    id: str
    status: str
    lhs: str
    rhs: str
    abs_err: str
    terms: Optional[int]
    measured_rate: Optional[float]
    predicted_rate: Optional[float] = None
    detail: str = ""

    #: the fields that ``verify`` prints, in order
    PRINTED = ("id", "status", "lhs", "rhs", "abs_err", "terms", "measured_rate")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def summary(self) -> dict:
        return {name: getattr(self, name) for name in self.PRINTED}


def load_catalog() -> List[IdentityRecord]:
    """Read the checked-in registry, sorted by id."""
    text = resources.files("betaseries").joinpath("data/catalog.json").read_text()
    records = [IdentityRecord(**doc) for doc in json.loads(text)]
    return sorted(records, key=lambda r: r.id)


def get_record(identity_id: str) -> IdentityRecord:
    for record in load_catalog():
        if record.id == identity_id:
            return record
    raise KeyError(f"unknown identity {identity_id!r}")


# --------------------------------------------------------------------------
# Recipe evaluation
# --------------------------------------------------------------------------


def eval_recipe(node: dict, digits: int) -> Tuple[mpf, List[EvalResult]]:
    """Evaluate a recipe tree; collects EvalResults of series-shaped leaves."""
    metas: List[EvalResult] = []
    with mp.workdps(digits + 12):
        value = _eval_node(node, digits, metas)
    return value, metas


def _eval_node(node: dict, digits: int, metas: List[EvalResult]) -> mpf:
    if not isinstance(node, dict) or len(node) != 1:
        raise ValueError(f"malformed recipe node: {node!r}")
    (key, arg), = node.items()
    leaf_digits = digits + 5
    if key == "rat":
        q = rational(arg)
        return mpf(q.numerator) / q.denominator
    if key == "const":
        if arg == "pi":
            return pi_machin(leaf_digits)
        if arg == "ln2":
            return ln2_series(leaf_digits)
        if arg == "catalan":
            return catalan_accelerated(leaf_digits)
        raise ValueError(f"unknown constant {arg!r}")
    if key == "sqrt":
        return sqrt_of(_eval_node(arg, digits, metas))
    if key == "root":
        base, order = arg
        return nth_root(_eval_node(base, digits, metas), int(order))
    if key == "ln":
        return ln_of(_eval_node(arg, digits, metas))
    if key == "atan":
        return atan_of(_eval_node(arg, digits, metas))
    if key == "asin":
        return asin_of(_eval_node(arg, digits, metas))
    if key == "neg":
        return -_eval_node(arg, digits, metas)
    if key == "add":
        return sum((_eval_node(a, digits, metas) for a in arg), mpf(0))
    if key == "sub":
        left, right = arg
        return _eval_node(left, digits, metas) - _eval_node(right, digits, metas)
    if key == "mul":
        out = mpf(1)
        for a in arg:
            out *= _eval_node(a, digits, metas)
        return out
    if key == "div":
        left, right = arg
        return _eval_node(left, digits, metas) / _eval_node(right, digits, metas)
    if key == "pow":
        base, exponent = arg
        return _eval_node(base, digits, metas) ** int(exponent)
    if key == "beta":
        p, q = arg
        return beta_value(p, q, leaf_digits)
    if key == "gamma":
        return gamma_combination(arg, leaf_digits)
    if key == "kummer":
        return gamma_combination(f"kummer({arg})", leaf_digits)
    if key == "integral":
        return integrate(_quadrature_problem(arg), leaf_digits)
    if key == "expr":
        result = evaluate_expr(arg, leaf_digits)
        metas.append(result)
        return result.value
    if key == "derived":
        result = evaluate_derived(series_spec_from_dict(arg), leaf_digits)
        metas.append(result)
        return result.value
    if key == "hyp":
        result = eval_hyp(hyp_spec_from_dict(arg), leaf_digits)
        metas.append(result)
        return result.value
    raise ValueError(f"unknown recipe node {key!r}")


def _quadrature_problem(doc: dict) -> QuadratureProblem:
    numerator = Polynomial(doc.get("num", (1,)))
    if "den_p" in doc:
        denominator = Polynomial(doc["den_p"])
    elif "den_kernel" in doc:
        kd = doc["den_kernel"]
        denominator = kernel_polynomial(kd["z"], int(kd["k"]), int(kd["s"]))
    else:
        denominator = Polynomial((1,))
    return QuadratureProblem(
        a=doc["a"],
        b=doc["b"],
        numerator=numerator,
        denominator=denominator,
    )


# --------------------------------------------------------------------------
# Exact (tolerance-free) identity checks
# --------------------------------------------------------------------------


def _check_rational_kernel_identity() -> Tuple[bool, str]:
    """Cross-multiplied form of the arcsine rational-function identity.

    For rational w (not 0, +-1):
    ``w^2 * ((w^2-1)/w^6 - x^2(1-x)) == -(1 - w^2 x) * (x^2 + (1/w^2-1) x + (1-w^2)/w^4)``
    as exact polynomials in x.  The printed form carries the two sides with
    opposite sign; the orientation encoded here is the one that is true.
    """
    x = Polynomial.x()
    samples = [Fraction(1, 2), Fraction(2), Fraction(-3, 5), Fraction(7, 4), Fraction(-5, 3)]
    for w in samples:
        lhs = Polynomial.constant(w**2) * (
            Polynomial.constant((w**2 - 1) / w**6) - x**2 * (1 - x)
        )
        n_poly = (
            x**2
            + Polynomial.constant(1 / w**2 - 1) * x
            + Polynomial.constant((1 - w**2) / w**4)
        )
        rhs = -(Polynomial.one() - Polynomial.constant(w**2) * x) * n_poly
        if lhs != rhs:
            return False, f"identity fails at w={w}"
    return True, f"exact at {len(samples)} rational sample points"


def _check_param_kernel(k, z_w, q_w, label) -> Tuple[bool, str]:
    """k = s parameterized solve over ``x^2 - x + w`` reproduces ``z(w)`` and Q."""
    pds = solve_seed_param(ParamPolynomial([Polynomial.x(), -1, 1]), k, k)
    if pds.z_w != Polynomial(z_w):
        return False, f"z(w) = {pds.z_w}, expected w^{k}"
    if pds.q_w != ParamPolynomial(Polynomial(c) for c in q_w):
        return False, f"Q(x,w) = {pds.q_w}, expected printed {label}"
    return True, f"z = w^{k} and Q match exactly; product identity re-verified"


# check name -> (k, z(w), Q(x, w) as w-coefficients of x^0, x^1, ..., label)
_PARAM_KERNELS = {
    # Q = x^4 - 2x^3 + (1 - w)x^2 + wx + w^2
    "param-cubic": (
        3,
        (0, 0, 0, 1),
        [(0, 0, 1), (0, 1), (1, -1), (-2,), (1,)],
        "quartic",
    ),
    # Q = x^8 - 4x^7 + (6 - w)x^6 + (3w - 4)x^5 + (w^2 - 3w + 1)x^4
    #     + (w - 2w^2)x^3 + (w^2 - w^3)x^2 + w^3 x + w^4
    "param-quintic": (
        5,
        (0, 0, 0, 0, 0, 1),
        [
            (0, 0, 0, 0, 1),
            (0, 0, 0, 1),
            (0, 0, 1, -1),
            (0, 1, -2),
            (1, -3, 1),
            (-4, 3),
            (6, -1),
            (-4,),
            (1,),
        ],
        "octic",
    ),
}


EXACT_CHECKS: Dict[str, Callable[[], Tuple[bool, str]]] = {
    "rational-kernel-identity": _check_rational_kernel_identity,
    **{
        name: partial(_check_param_kernel, *row)
        for name, row in _PARAM_KERNELS.items()
    },
}


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------


def verify(record, digits: Optional[int] = None) -> VerifyReport:
    """Verify one record (by id or object) at the requested precision."""
    if isinstance(record, str):
        record = get_record(record)
    digits = digits if digits is not None else record.digits
    if record.kind == "numeric":
        return _verify_numeric(record, digits)
    if record.kind == "duality":
        return _verify_duality(record, digits)
    if record.kind == "exact":
        return _verify_exact(record)
    if record.kind == "grouping":
        return _verify_grouping_record(record, digits)
    raise ValueError(f"unknown record kind {record.kind!r}")


def _report(
    record, ok, lhs, rhs, abs_err, detail, series=None, terms=None, rate=None, predicted=None
) -> VerifyReport:
    """The report of ``record``, PASS iff ``ok``; ``terms`` and the measured rate
    are those of ``series``, a series-shaped side's ``EvalResult``, if given."""
    if series is not None:
        terms, rate = series.terms_used, series.measured_rate
    return VerifyReport(
        id=record.id,
        status="PASS" if ok else "FAIL",
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        terms=terms,
        measured_rate=rounded_rate(rate),
        predicted_rate=rounded_rate(predicted),
        detail=detail,
    )


def _spread(values, digits: int) -> Tuple[mpf, bool]:
    """The largest difference of two values, and whether it is below ``10^-digits``."""
    with mp.workdps(digits + 12):
        err = max(abs(u - v) for u in values for v in values)
        return err, err < mpf(10) ** (-digits)


def _verify_numeric(record: IdentityRecord, digits: int) -> VerifyReport:
    lhs, lmeta = eval_recipe(record.lhs, digits)
    rhs, rmeta = eval_recipe(record.rhs, digits)
    err, ok = _spread((lhs, rhs), digits)
    detail = "" if ok else f"|lhs - rhs| = {bound_str(err)} >= 1e-{digits}"
    return _report(
        record, ok, float_str(lhs, digits), float_str(rhs, digits), bound_str(err), detail,
        series=next(iter(lmeta + rmeta), None),
    )


def _verify_duality(record: IdentityRecord, digits: int) -> VerifyReport:
    """The series against the quadrature of its seed integral.

    The kernel form of the integral is not integrated: ``DerivedSeries``
    checks ``seed_p * Q == z - x^k (1-x)^s`` exactly on construction, so
    its quadrature could differ from the seed's only by rounding.
    """
    ds = series_spec_from_dict(record.series)
    result = evaluate_derived(ds, digits + 5)
    seed_problem = QuadratureProblem(a=ds.a, b=ds.b, denominator=ds.seed_p)
    v_seed = integrate(seed_problem, digits + 5)
    closed = [eval_recipe(record.rhs, digits)[0]] if record.rhs is not None else []
    err, ok = _spread([result.value, v_seed, *closed], digits)
    detail = "closed form included" if closed else ""
    if not ok:
        detail = f"series/quadrature spread {bound_str(err)} >= 1e-{digits}"
    return _report(
        record, ok, float_str(result.value, digits), float_str(v_seed, digits), bound_str(err),
        detail, series=result, predicted=predicted_rate(ds),
    )


def _verify_exact(record: IdentityRecord) -> VerifyReport:
    checker = EXACT_CHECKS.get(record.check or "")
    if checker is None:
        raise ValueError(f"unknown exact check {record.check!r}")
    ok, detail = checker()
    return _report(record, ok, "exact", "exact", "0" if ok else "nonzero", detail)


def _verify_grouping_record(record: IdentityRecord, digits: int) -> VerifyReport:
    base = hyp_spec_from_dict(record.base)
    if isinstance(base, GroupedSeries):
        raise ValueError("grouping record base must be ungrouped")
    m = record.m or 2
    # exact telescoping: grouped partial sums == base partial sums at stride m
    first_bad = first_mismatch(base.core, group(base, m).core, m, record.check_terms)
    exact_ok = first_bad is None
    numeric = verify_grouping(base, m, digits)
    sums_note = "match" if exact_ok else f"diverge at n={first_bad}"
    detail = f"exact partial sums n<={record.check_terms} {sums_note}"
    if numeric.detail:
        detail += "; " + numeric.detail
    else:
        detail += (
            f"; rates base {numeric.base_rate:.3f} -> grouped "
            f"{numeric.grouped_rate:.3f} digits/term"
        )
    return _report(
        record, exact_ok and numeric.passed, float_str(numeric.grouped_value, digits),
        float_str(numeric.base_value, digits), "0" if exact_ok else "exact mismatch", detail,
        terms=record.check_terms, rate=numeric.grouped_rate,
    )


def run_all(
    digits: Optional[int] = None, only: Optional[str] = None
) -> dict:
    """Verify the whole catalog; returns a machine-readable summary.

    ``only`` filters record ids with shell-style wildcards.  Reports are
    generated in sorted id order, so output is deterministic.
    """
    import fnmatch

    records = load_catalog()
    if only:
        records = [r for r in records if fnmatch.fnmatch(r.id, only)]
    reports = [verify(r, digits) for r in records]
    passed = sum(1 for r in reports if r.passed)
    return {
        "digits": digits,
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "records": [r.summary() for r in reports],
    }
