"""Exact solvers for sender-receiver persuasion with combinatorial actions.

The receiver picks a feasible set (matroid independent set, or a source-sink
path in the minimization flavor); the sender commits to a signaling scheme.
The package computes optimal persuasive schemes (full LP and a
best-response-catalog reduction), optimal and approximately-optimal schemes
under the relaxed prior-baseline obedience notion, hardness-construction
instance generators, and a CLI for solving, validating, and generating
instances — all in exact rational arithmetic.

Public names load their module on first use (PEP 562), so importing the
package, or one submodule such as ``combisig.cli``, compiles only what it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining module
_EXPORTS = {
    name: module
    for module, names in {
        "best_response": "BestResponseCatalog NondegeneracyReport check_nondegeneracy "
        "enumerate_best_responses greedy_at_point receiver_hyperplanes",
        "cce": "ApproxOracle CCEInstanceView compute_v_bounds make_view "
        "prior_best_value separation solve_cce_approx solve_cce_exact",
        "errors": "CertificateError CombisigError DegenerateBounds InstanceFormatError "
        "IterationCap MissingSolution NoPath OracleContractViolation ParameterError "
        "PriorDegenerate TooLarge UnsupportedCombination UnsupportedSense",
        "model": "ActionSet Graphic Instance OracleMatroid PathGraph Partition Posterior "
        "Sense SignalingScheme Uniform UtilityKind UtilitySpec",
        "persuasion": "PersuasivenessReport SolveResult check_persuasive enumerate_actions "
        "expected_sender_value solve_full solve_reduced uninformative_scheme",
        "reductions": "LineqMaSpec PublicPersuasionSpec completeness_scheme "
        "gen_graphic_from_lineq gen_partition_from_public gen_path_from_lineq "
        "gen_uniform_from_lineq",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
