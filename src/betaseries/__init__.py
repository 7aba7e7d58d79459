"""betaseries: derive, evaluate, and verify fast series for constants.

The library mechanizes a Beta-integral acceleration scheme: a seed
integral ``int_0^1 x^a (1-x)^b / P(x) dx`` with known value is converted,
by exact polynomial division against a kernel ``z - x^k (1-x)^s``, into a
rapidly converging series; series are evaluated to arbitrary precision
with rigorous tail bounds and verified against independent quadrature and
classical reference constants.
"""

from .catalog import IdentityRecord, VerifyReport, load_catalog, run_all, verify
from .derive import (
    DerivedSeries,
    DerivationError,
    DegenerateSeriesError,
    DivergentSeriesError,
    NotDivisibleError,
    ParamDerivedSeries,
    SeedIntegral,
    solve_seed,
    solve_seed_param,
    weight_values,
)
from .engine import (
    EvalResult,
    EvaluationError,
    SeriesDivergenceError,
    evaluate_derived,
    evaluate_expr,
    measured_rate,
    predicted_rate,
    sum_terms,
)
from .expressions import parse_term_expr, pochhammer
from .hyper import (
    GroupedSeries,
    HypSeriesSpec,
    eval_hyp,
    group,
    hyp_rate,
    verify_grouping,
)
from .polynomials import (
    ParamPolynomial,
    Polynomial,
    convergence_bound,
    expand_kernel,
    poly_divmod,
    rational,
)
from .quadrature import KernelForm, QuadratureProblem, integrate
from .references import gamma_combination, reference

__version__ = "0.1.0"

__all__ = [
    "DerivationError",
    "DegenerateSeriesError",
    "DerivedSeries",
    "DivergentSeriesError",
    "EvalResult",
    "EvaluationError",
    "GroupedSeries",
    "HypSeriesSpec",
    "IdentityRecord",
    "KernelForm",
    "NotDivisibleError",
    "ParamDerivedSeries",
    "ParamPolynomial",
    "Polynomial",
    "QuadratureProblem",
    "SeedIntegral",
    "SeriesDivergenceError",
    "VerifyReport",
    "convergence_bound",
    "eval_hyp",
    "evaluate_derived",
    "evaluate_expr",
    "expand_kernel",
    "gamma_combination",
    "group",
    "hyp_rate",
    "integrate",
    "load_catalog",
    "measured_rate",
    "parse_term_expr",
    "pochhammer",
    "poly_divmod",
    "predicted_rate",
    "rational",
    "reference",
    "run_all",
    "solve_seed",
    "solve_seed_param",
    "sum_terms",
    "verify",
    "verify_grouping",
    "weight_values",
]
