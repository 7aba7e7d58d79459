"""JSON wire formats.

Rationals travel as strings (``"num/den"``, or plain ``"num"`` when the
denominator is 1) so no precision is ever lost; floats travel as decimal
strings with an explicit digit count.  For derived and hypergeometric
specs ``parse -> serialize -> parse`` is the identity; the parameterized
series of ``derive --param`` is only written, never read back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from mpmath import mp, mpf

from .derive import DerivedSeries, ParamDerivedSeries
from .hyper import GroupedSeries, HypSeriesSpec
from .polynomials import Polynomial, rational


def rat_str(x: Fraction) -> str:
    x = rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_list(xs) -> List[str]:
    return [rat_str(x) for x in xs]


def float_str(value: mpf, digits: int) -> str:
    """Deterministic decimal rendering with an explicit digit count."""
    return mp.nstr(value, digits, strip_zeros=False)


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


def _require(doc: dict, kind: str, *fields: str) -> None:
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"{kind} spec is missing {', '.join(map(repr, missing))}")


def series_spec_from_dict(doc: dict) -> DerivedSeries:
    _require(doc, "derived series", "a", "b", "k", "s", "z", "qcoeffs")
    return DerivedSeries(
        a=rational(doc["a"]),
        b=rational(doc["b"]),
        k=int(doc["k"]),
        s=int(doc["s"]),
        z=rational(doc["z"]),
        qcoeffs=tuple(rational(c) for c in doc["qcoeffs"]),
        seed_p=Polynomial(rational(c) for c in doc["seed_p_coeffs"])
        if "seed_p_coeffs" in doc
        else None,
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
    _require(doc, "hypergeometric", "upper", "lower", "z")
    base = HypSeriesSpec(
        upper=tuple(rational(x) for x in doc["upper"]),
        lower=tuple(rational(y) for y in doc["lower"]),
        z=rational(doc["z"]),
    )
    m = doc.get("m")
    if m is not None and int(m) != 1:
        return GroupedSeries(base=base, m=int(m))
    return base
