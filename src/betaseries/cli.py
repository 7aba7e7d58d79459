"""Command-line interface.

Subcommands: ``derive``, ``eval``, ``rate``, ``integrate``, ``accelerate``,
``verify``, ``list``.  Results go to stdout as JSON; diagnostics go to
stderr.  Exit status: 0 success, 1 verification/evaluation failure,
2 usage error.  Every option is checked where argparse reads it: a
malformed number or ``--expr`` (a syntax or semantic error in the term
expression), a missing or conflicting option, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import catalog as catalog_mod
from .derive import SeedIntegral, solve_seed, solve_seed_param
from .engine import evaluate_derived, evaluate_expr, predicted_rate
from .expressions import ExprError, TermExpr, parse_term_expr
from .hyper import GroupedSeries, eval_hyp, group, hyp_rate
from .polynomials import ParamPolynomial, Polynomial, kernel_polynomial, rational
from .quadrature import QuadratureProblem, integrate
from .wire import (
    bound_str,
    float_str,
    hyp_spec_from_dict,
    hyp_spec_to_dict,
    param_series_to_dict,
    rounded_rate,
    series_spec_from_dict,
    series_spec_to_dict,
)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _positive_int(text: str) -> int:
    """argparse type of ``--digits`` and ``--m``: a count that is at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """argparse type of a rational such as ``-1/2`` or ``1.5``."""
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _polynomial(text: str) -> Polynomial:
    """argparse type of comma-separated coefficients, ascending degree.

    An empty field is an error, not a coefficient to drop: ``1,,2`` is not
    ``1 + 2x``.
    """
    return Polynomial([_rational(part) for part in text.split(",")])


def _rational_rows(text: str) -> list:
    """argparse type of ``derive --p``: one row per x-degree, comma-separated.

    Each row is a colon-separated list of w-coefficients, one entry without
    ``--param``: ``"0:1,-1,1"`` means ``(0 + 1*w) + (-1)*x + (1)*x^2``.
    """
    return [[_rational(c) for c in row.split(":")] for row in text.split(",")]


def _term_expr(text: str) -> TermExpr:
    """argparse type of ``--expr``: the summand, parsed and checked here once."""
    try:
        return parse_term_expr(text)
    except ExprError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _kernel(text: str) -> Polynomial:
    """argparse type of ``--kernel z,k,s``: ``z - x^k (1-x)^s``, expanded.

    z is rational; k and s are integers, nonnegative with ``k + s >= 1``.
    """
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"takes z,k,s, got {text!r}")
    try:
        k, s = int(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"k and s must be integers, got {text!r}"
        ) from None
    try:
        return kernel_polynomial(_rational(parts[0]), k, s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_derive(args) -> int:
    if args.param:
        p = ParamPolynomial(Polynomial(row) for row in args.p)
        pds = solve_seed_param(p, args.k, args.s, a=args.a, b=args.b)
        _emit(param_series_to_dict(pds))
        return 0
    if any(len(row) != 1 for row in args.p):
        args.usage_error("--p takes colon-separated w-coefficients only with --param")
    seed = SeedIntegral(a=args.a, b=args.b, p=Polynomial(row[0] for row in args.p))
    ds = solve_seed(seed, args.k, args.s)
    _emit(series_spec_to_dict(ds))
    return 0


def _load_spec_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"spec file {path} must hold a JSON object")
    return doc


def _is_hyp_spec(doc: dict) -> bool:
    """A spec with any field only hypergeometric specs have."""
    return "upper" in doc or "lower" in doc


def _cmd_eval(args) -> int:
    if args.expr is not None:
        result = evaluate_expr(args.expr, args.digits)
    else:
        doc = _load_spec_file(args.spec)
        if "expr" in doc:
            result = evaluate_expr(doc["expr"], args.digits)
        elif _is_hyp_spec(doc):
            result = eval_hyp(hyp_spec_from_dict(doc), args.digits)
        else:
            result = evaluate_derived(series_spec_from_dict(doc), args.digits)
    _emit(
        {
            "value": float_str(result.value, args.digits),
            "digits": args.digits,
            "terms": result.terms_used,
            "tail_bound": bound_str(result.tail_bound),
            "measured_rate": rounded_rate(result.measured_rate),
        }
    )
    return 0


def _cmd_rate(args) -> int:
    doc = _load_spec_file(args.spec)
    if "expr" in doc:
        raise ValueError("rate --spec takes a derived or hypergeometric spec, not an expression")
    if _is_hyp_spec(doc):
        rate = hyp_rate(hyp_spec_from_dict(doc))
    else:
        rate = predicted_rate(series_spec_from_dict(doc))
    _emit({"predicted_rate": rounded_rate(rate)})
    return 0


def _cmd_integrate(args) -> int:
    problem = QuadratureProblem(
        a=args.a, b=args.b, numerator=args.num, denominator=args.denominator
    )
    value = integrate(problem, args.digits)
    _emit({"value": float_str(value, args.digits), "digits": args.digits})
    return 0


def _cmd_accelerate(args) -> int:
    doc = _load_spec_file(args.hyp)
    spec = hyp_spec_from_dict(doc)
    base = spec.base if isinstance(spec, GroupedSeries) else spec
    grouped = group(base, args.m)
    _emit(hyp_spec_to_dict(grouped))
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        summary = catalog_mod.run_all(digits=args.digits, only=args.only)
        _emit(summary)
        return 0 if summary["failed"] == 0 else 1
    if args.only is not None:
        args.usage_error("--only filters --all; it cannot be used with --id")
    report = catalog_mod.verify(args.id, digits=args.digits)
    doc = report.summary()
    if report.detail:
        doc["detail"] = report.detail
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_list(_args) -> int:
    records = catalog_mod.load_catalog()
    fields = ("id", "kind", "digits", "provenance")
    _emit([{name: getattr(r, name) for name in fields} for r in records])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaseries",
        description="Derive, evaluate, and verify rapidly converging series "
        "for mathematical constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("derive", help="solve a seed denominator for z and Q")
    d.add_argument("--p", required=True, type=_rational_rows, help="seed denominator coefficients, ascending degree, e.g. 1,1/3 (with --param: colon-separated w-coefficients per x-degree, e.g. 0:1,-1,1)")
    d.add_argument("--a", default="0", type=_rational, help="exponent of x (rational)")
    d.add_argument("--b", default="0", type=_rational, help="exponent of 1-x (rational)")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--s", type=int, required=True)
    d.add_argument("--param", action="store_true", help="treat P as P(x, w)")
    d.set_defaults(handler=_cmd_derive, usage_error=d.error)

    e = sub.add_parser("eval", help="evaluate a series to target digits")
    source = e.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="JSON series spec file")
    source.add_argument("--expr", type=_term_expr, help="term expression text")
    e.add_argument("--digits", type=_positive_int, required=True)
    e.set_defaults(handler=_cmd_eval)

    r = sub.add_parser("rate", help="predicted digits per term of a spec")
    r.add_argument("--spec", required=True)
    r.set_defaults(handler=_cmd_rate)

    i = sub.add_parser("integrate", help="quadrature of x^a (1-x)^b N/D on [0,1]")
    i.add_argument("--a", required=True, type=_rational)
    i.add_argument("--b", required=True, type=_rational)
    i.add_argument("--num", type=_polynomial, default=Polynomial.one(), help="numerator coefficients, ascending")
    denominator = i.add_mutually_exclusive_group()
    denominator.add_argument("--p", dest="denominator", metavar="P", type=_polynomial, default=Polynomial.one(), help="denominator polynomial coefficients, ascending")
    denominator.add_argument("--kernel", dest="denominator", metavar="KERNEL", type=_kernel, help="kernel denominator as z,k,s")
    i.add_argument("--digits", type=_positive_int, required=True)
    i.set_defaults(handler=_cmd_integrate)

    a = sub.add_parser("accelerate", help="m-step grouping of a series spec")
    a.add_argument("--hyp", required=True, help="JSON spec file")
    a.add_argument("--m", type=_positive_int, required=True)
    a.set_defaults(handler=_cmd_accelerate)

    v = sub.add_parser("verify", help="verify catalog identities")
    target = v.add_mutually_exclusive_group(required=True)
    target.add_argument("--id", help="identity id, e.g. eq-1.1")
    target.add_argument("--all", action="store_true")
    v.add_argument("--only", help="wildcard filter with --all, e.g. 'eq-5.*'")
    v.add_argument(
        "--digits", type=_positive_int, help="override per-record precision"
    )
    v.set_defaults(handler=_cmd_verify, usage_error=v.error)

    ls = sub.add_parser("list", help="list catalog records")
    ls.set_defaults(handler=_cmd_list)
    return parser


_FLAG = re.compile(r"^--[^=]+$")
#: a token that starts with one ``-`` is a value, such as ``-1/2`` or
#: ``-(1/2)^n``: every option is long, except ``-h``
_DASH_VALUE = re.compile(r"^-(?!-|h$)")


def _merge_negative_values(argv):
    """Join ``--flag -1/2`` into ``--flag=-1/2`` so argparse takes the value."""
    out = []
    for tok in argv:
        if out and _FLAG.match(out[-1]) and _DASH_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
