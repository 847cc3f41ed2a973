"""Exact solvers for sender-receiver persuasion with combinatorial actions.

The receiver picks a feasible set (matroid independent set, or a source-sink
path in the minimization flavor); the sender commits to a signaling scheme.
The package computes optimal persuasive schemes (full LP and a
best-response-catalog reduction), optimal and approximately-optimal schemes
under the relaxed prior-baseline obedience notion, hardness-construction
instance generators, and a CLI for solving, validating, and generating
instances — all in exact rational arithmetic.
"""

from .best_response import (
    BestResponseCatalog,
    NondegeneracyReport,
    check_nondegeneracy,
    enumerate_best_responses,
    greedy_at_point,
    receiver_hyperplanes,
)
from .cce import (
    ApproxOracle,
    CCEInstanceView,
    DualPoint,
    compute_v_bounds,
    make_view,
    prior_best_value,
    separation,
    solve_cce_approx,
    solve_cce_exact,
)
from .errors import (
    CertificateError,
    CombisigError,
    DegenerateBounds,
    InstanceFormatError,
    IterationCap,
    MissingSolution,
    NoPath,
    OracleContractViolation,
    ParameterError,
    PriorDegenerate,
    TooLarge,
    UnsupportedCombination,
    UnsupportedSense,
)
from .model import (
    ActionSet,
    Graphic,
    Instance,
    OracleMatroid,
    PathGraph,
    Partition,
    Posterior,
    Sense,
    SignalingScheme,
    Uniform,
    UtilityKind,
    UtilitySpec,
)
from .persuasion import (
    PersuasivenessReport,
    SolveResult,
    check_persuasive,
    enumerate_actions,
    expected_sender_value,
    solve_full,
    solve_reduced,
    uninformative_scheme,
)
from .reductions import (
    LineqMaSpec,
    PublicPersuasionSpec,
    completeness_scheme,
    gen_graphic_from_lineq,
    gen_partition_from_public,
    gen_path_from_lineq,
    gen_uniform_from_lineq,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSet",
    "ApproxOracle",
    "BestResponseCatalog",
    "CCEInstanceView",
    "CertificateError",
    "CombisigError",
    "DegenerateBounds",
    "DualPoint",
    "Graphic",
    "Instance",
    "InstanceFormatError",
    "IterationCap",
    "LineqMaSpec",
    "MissingSolution",
    "NondegeneracyReport",
    "NoPath",
    "OracleContractViolation",
    "OracleMatroid",
    "ParameterError",
    "Partition",
    "PathGraph",
    "PersuasivenessReport",
    "Posterior",
    "PriorDegenerate",
    "PublicPersuasionSpec",
    "Sense",
    "SignalingScheme",
    "SolveResult",
    "TooLarge",
    "Uniform",
    "UnsupportedCombination",
    "UnsupportedSense",
    "UtilityKind",
    "UtilitySpec",
    "check_nondegeneracy",
    "check_persuasive",
    "completeness_scheme",
    "compute_v_bounds",
    "enumerate_actions",
    "enumerate_best_responses",
    "expected_sender_value",
    "gen_graphic_from_lineq",
    "gen_partition_from_public",
    "gen_path_from_lineq",
    "gen_uniform_from_lineq",
    "greedy_at_point",
    "make_view",
    "prior_best_value",
    "receiver_hyperplanes",
    "separation",
    "solve_cce_approx",
    "solve_cce_exact",
    "solve_full",
    "solve_reduced",
    "uninformative_scheme",
]
