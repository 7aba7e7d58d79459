"""JSON wire formats.

Rationals travel as strings (``"num/den"``, or plain ``"num"`` when the
denominator is 1) so no precision is ever lost; floats travel as decimal
strings with an explicit digit count: an error or a bound to 5
significant digits, a rate to 4 decimals.  A spec is read by passing its
JSON values on to ``DerivedSeries`` and ``HypSeriesSpec``, which coerce
them with ``rational``.  For derived and hypergeometric specs ``parse ->
serialize -> parse`` is the identity; the parameterized series of
``derive --param`` is only written, never read back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

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


def _require(doc: dict, kind: str, *fields: str) -> None:
    missing = [name for name in fields if name not in doc]
    if missing:
        raise ValueError(f"{kind} spec is missing {', '.join(map(repr, missing))}")


def series_spec_from_dict(doc: dict) -> DerivedSeries:
    _require(doc, "derived series", "a", "b", "k", "s", "z", "qcoeffs")
    return DerivedSeries(
        a=doc["a"],
        b=doc["b"],
        k=int(doc["k"]),
        s=int(doc["s"]),
        z=doc["z"],
        qcoeffs=doc["qcoeffs"],
        seed_p=Polynomial(doc["seed_p_coeffs"]) if "seed_p_coeffs" in doc else None,
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
    base = HypSeriesSpec(upper=doc["upper"], lower=doc["lower"], z=doc["z"])
    m = doc.get("m")
    if m is not None and int(m) != 1:
        return GroupedSeries(base=base, m=int(m))
    return base
