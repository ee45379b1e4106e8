"""Makespan minimization for restricted assignment with two-machine heavy jobs.

Exact integer and rational arithmetic throughout; every infeasibility claim
comes with a machine-checkable certificate, and a desk-scale exhaustive
oracle can re-verify both solutions and certificates.
"""

from .driver import Solution, solve
from .errors import (
    GraphBalanceError,
    InvariantViolation,
    MalformedDeclaration,
    OracleBudgetError,
    OracleTimeout,
    ParseError,
    RegimeError,
    ValidationError,
)
from .instance import (
    Instance,
    JobSpec,
    MachineSpec,
    Regime,
    SolveMode,
    derive_beta,
    format_fraction,
    generate_adversarial_path,
    generate_general,
    generate_two_valued,
    parse_fraction,
    parse_instance,
    serialize_instance,
    validate,
)
from .oracle import (
    exact_opt,
    feasible_at,
    verify_certificate,
    verify_solution,
)
from .preprocess import (
    Declaration,
    EdgeGraph,
    EdgeJob,
    GuessContext,
    MovableJob,
    min_edge_load_into,
    reduce_instance,
)

__all__ = [
    "Declaration",
    "EdgeGraph",
    "EdgeJob",
    "GraphBalanceError",
    "GuessContext",
    "Instance",
    "InvariantViolation",
    "JobSpec",
    "MachineSpec",
    "MalformedDeclaration",
    "MovableJob",
    "OracleBudgetError",
    "OracleTimeout",
    "ParseError",
    "Regime",
    "RegimeError",
    "Solution",
    "SolveMode",
    "ValidationError",
    "derive_beta",
    "exact_opt",
    "feasible_at",
    "format_fraction",
    "generate_adversarial_path",
    "generate_general",
    "generate_two_valued",
    "min_edge_load_into",
    "parse_fraction",
    "parse_instance",
    "reduce_instance",
    "serialize_instance",
    "solve",
    "validate",
    "verify_certificate",
    "verify_solution",
]
