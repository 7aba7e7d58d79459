"""JSON wire formats.

Rationals travel as strings (``"num/den"``, or plain ``"num"`` when the
denominator is 1) so no precision is ever lost; floats travel as decimal
strings with an explicit digit count: an error or a bound to 5
significant digits, a rate to 4 decimals, with no bare point.  A spec
with a field it does not declare is refused; else it is read by checking
each field's JSON type where it is read (a rational is a string or an
integer, never a boolean; a list is an array; ``k``, ``s`` and ``m`` are
integers; an expression is a string), then passing the values on to
``DerivedSeries`` and ``HypSeriesSpec``, which coerce them with
``rational``.  For derived and hypergeometric specs ``parse -> serialize
-> parse`` is the identity; the parameterized series of ``derive
--param`` is only written, never read back.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional

from mpmath import mp, mpf

from .derive import DerivedSeries, ParamDerivedSeries
from .hyper import GroupedSeries, HypSeriesSpec
from .polynomials import Polynomial


def rat_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_list(xs) -> List[str]:
    return [rat_str(x) for x in xs]


def float_str(value: mpf, digits: int) -> str:
    """Deterministic decimal rendering with an explicit digit count, with no
    bare point: ``"69314718055994530942"`` and ``"1e-5"``, not ``"...942."``
    and ``"1.e-5"``."""
    return mp.nstr(value, digits, strip_zeros=False).removesuffix(".").replace(".e", "e")


def bound_str(value: mpf) -> str:
    """An error or an error bound, to 5 significant digits."""
    return float_str(value, 5)


def rounded_rate(rate: Optional[float]) -> Optional[float]:
    """A rate in digits per term, to 4 decimals; None stays None."""
    return None if rate is None else round(rate, 4)


def series_spec_to_dict(ds: DerivedSeries) -> dict:
    return {
        "a": rat_str(ds.a),
        "b": rat_str(ds.b),
        "k": ds.k,
        "s": ds.s,
        "z": rat_str(ds.z),
        "qcoeffs": rat_list(ds.qcoeffs),
        "seed_p_coeffs": rat_list(ds.seed_p.coeffs),
    }


def _require(doc: dict, kind: str, required: tuple, optional=()) -> None:
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"{kind} spec is missing {', '.join(map(repr, missing))}")
    unknown = [name for name in doc if name not in required + optional]
    if unknown:
        raise ValueError(f"{kind} spec has unknown field {', '.join(map(repr, unknown))}")


def _is_rational(value) -> bool:
    return type(value) in (str, int)  # a JSON true or false is a bool, not an int


#: the JSON types of spec fields: what an error says, and the test
_INTEGER = "an integer", lambda v: type(v) is int
_RATIONAL = "a rational (a string or an integer)", _is_rational
_RATIONALS = "an array of rationals (strings or integers)", lambda v: (
    type(v) is list and all(map(_is_rational, v))
)
_STRING = "a string", lambda v: type(v) is str


def _field(doc: dict, kind: str, name: str, json_type: tuple):
    """``doc[name]``, or a ``ValueError`` naming the field of the ``kind`` spec
    unless its JSON value has ``json_type``."""
    (what, test), value = json_type, doc[name]
    if not test(value):
        raise ValueError(f"{kind} spec field {name!r} must be {what}, got {json.dumps(value)}")
    return value


def expr_from_dict(doc: dict) -> str:
    _require(doc, "expression", ("expr",))
    return _field(doc, "expression", "expr", _STRING)


def series_spec_from_dict(doc: dict) -> DerivedSeries:
    kind = "derived series"
    _require(doc, kind, ("a", "b", "k", "s", "z", "qcoeffs"), ("seed_p_coeffs",))
    seed_p = None
    if "seed_p_coeffs" in doc:
        seed_p = Polynomial(_field(doc, kind, "seed_p_coeffs", _RATIONALS))
    return DerivedSeries(
        a=_field(doc, kind, "a", _RATIONAL),
        b=_field(doc, kind, "b", _RATIONAL),
        k=_field(doc, kind, "k", _INTEGER),
        s=_field(doc, kind, "s", _INTEGER),
        z=_field(doc, kind, "z", _RATIONAL),
        qcoeffs=_field(doc, kind, "qcoeffs", _RATIONALS),
        seed_p=seed_p,
    )


def param_series_to_dict(pds: ParamDerivedSeries) -> dict:
    return {
        "a": rat_str(pds.a),
        "b": rat_str(pds.b),
        "k": pds.k,
        "s": pds.s,
        "z_w_coeffs": rat_list(pds.z_w.coeffs),
        "qcoeffs_w": [rat_list(q.coeffs) for q in pds.qcoeffs_w],
        "seed_p_w": [rat_list(c.coeffs) for c in pds.seed_p.coeffs],
    }


def hyp_spec_to_dict(spec) -> dict:
    if isinstance(spec, GroupedSeries):
        base, m = spec.base, spec.m
    else:
        base, m = spec, None
    doc = {
        "upper": rat_list(base.upper),
        "lower": rat_list(base.lower),
        "z": rat_str(base.z),
    }
    if m is not None:
        doc["m"] = m
    return doc


def hyp_spec_from_dict(doc: dict):
    kind = "hypergeometric"
    _require(doc, kind, ("upper", "lower", "z"), ("m",))
    base = HypSeriesSpec(
        upper=_field(doc, kind, "upper", _RATIONALS),
        lower=_field(doc, kind, "lower", _RATIONALS),
        z=_field(doc, kind, "z", _RATIONAL),
    )
    m = _field(doc, kind, "m", _INTEGER) if "m" in doc else 1
    return base if m == 1 else GroupedSeries(base=base, m=m)
