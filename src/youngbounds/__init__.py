"""Rigorous two-sided bounds for the Young integral functional.

For a strictly increasing h on [0, c] with h(0) = 0, the package evaluates

    integral(h, 0, a) + integral(h^{-1}, 0, b) - a*b  >= 0

to quadrature accuracy and sandwiches it with a catalog of refinement
estimates built from derivative values, derivative ranges, and derivative
norms. Everything is pure: instances are immutable after validation and every
operation is safe to call concurrently.
"""

from .catalog import (
    METHODS,
    BoundResult,
    HypothesisCheck,
    SnPolynomial,
    TargetQuantity,
    bound_hh_cebysev,
    bound_holder_norm,
    bound_hoorfar_qi,
    bound_jensen_first,
    bound_lp_remainder,
    bound_polya_first,
    bound_polya_higher,
    bound_polya_second,
    bound_taylor_cebysev,
    bound_taylor_holder,
    bound_taylor_jensen,
    bound_taylor_lagrange,
    bound_taylor_product_hh,
    run_method,
)
from .errors import (
    ConsistencyError,
    DomainError,
    ExponentDomainError,
    ExprSyntaxError,
    InvalidTError,
    InvariantViolation,
    NoConvergenceError,
    NotBracketedError,
    OrderCapError,
    ParseError,
    UnsupportedFeatureError,
    ValidationError,
    YoungBoundsError,
)
from .expr import (
    ExprAst, TaylorJet, evaluate, evaluate_rows, jet, jet_rows, parse_expr, serialize,
)
from .numerics import NormSpec, QuadratureResult, extremum, integrate, invert, norm_r
from .report import (
    load_problem,
    run_report,
    sweep,
    verify_golden,
)
from .young import (
    Anchors,
    Options,
    OracleResult,
    ProblemInstance,
    anchors,
    make_problem,
    oracle,
    oracle_gap,
    oracle_sum,
)

__version__ = "0.1.0"
