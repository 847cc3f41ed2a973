"""Optimal persuasive signaling via exact linear programs.

The full solver enumerates every feasible action and optimizes the sender's
expected utility over direct schemes subject to persuasiveness: for each
recommended action S and every alternative S', the receiver must weakly
prefer S under the posterior that S induces.  In the path/minimization
setting the receiver minimizes cost, the sender minimizes its own cost, and
the persuasiveness inequality flips.

Persuasiveness rows are generated lazily: the LP starts with only the
per-state probability rows, and after each solve the receiver's best
deviation at every recommended action's posterior is computed (greedy /
shortest path / table scan); violated pair rows are added until none
remain, at which point the relaxed optimum is feasible for - and therefore
equal to - the full LP optimum.

The reduced solver runs the same machinery over the best-response catalog
only, with deviations restricted to catalog members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import lp, matroid, paths
from .errors import CertificateError, TooLarge, UnsupportedCombination
from .model import (
    MATROID_KINDS,
    ActionSet,
    Instance,
    PathGraph,
    Posterior,
    SignalingScheme,
    Sense,
    UtilityKind,
    deterministic_scheme,
    expected_value,
    signal_mass,
    posterior,
)
from .paths import shortest_path  # re-exported: the min-sense receiver move
from .rationals import ZERO

MATROID_ENUM_LIMIT = 20

__all__ = [
    "SolveResult",
    "PersuasivenessReport",
    "enumerate_actions",
    "solve_full",
    "solve_reduced",
    "check_persuasive",
    "deviation_pool",
    "uninformative_scheme",
    "tie_broken_response",
    "expected_sender_value",
    "shortest_path",
]


@dataclass(frozen=True)
class SolveResult:
    scheme: SignalingScheme
    sender_value: Fraction
    method: str  # "full-lp" | "reduced-lp" | "cce-cutting-plane" | "cce-ellipsoid"
    catalog_size: int | None = None
    lp_stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PersuasivenessReport:
    persuasive: bool
    violations: tuple  # (recommended, better_alternative, gap) triples
    method: str  # "enumerated" | "catalog"


def enumerate_actions(constraint, n: int, max_actions: int | None = None) -> list[ActionSet]:
    """Every feasible action: all independent sets, or all source-sink paths."""
    if isinstance(constraint, PathGraph):
        cap = paths.DEFAULT_PATH_CAP if max_actions is None else max_actions
        return paths.enumerate_paths(constraint, cap=cap)
    if n > MATROID_ENUM_LIMIT:
        raise TooLarge(
            f"ground set of {n} elements is too large to enumerate", MATROID_ENUM_LIMIT
        )
    oracle = matroid.oracle_for(constraint, n)
    out: list[ActionSet] = []
    prefix: list[int] = []

    def extend(start: int) -> None:
        out.append(tuple(prefix))
        if max_actions is not None and len(out) > max_actions:
            raise TooLarge("more actions than the requested cap", max_actions)
        for e in range(start, n):
            prefix.append(e)
            if oracle.is_independent(tuple(prefix)):
                extend(e + 1)
            prefix.pop()

    extend(0)
    return out


def _receiver_weights(instance: Instance, xi: tuple[Fraction, ...]) -> list[Fraction]:
    rows = instance.receiver.linear
    return [
        sum((xi[t] * rows[t][e] for t in range(instance.num_states)), ZERO)
        for e in range(instance.num_elements)
    ]


def _best_deviation(
    instance: Instance, xi: Posterior, pool: list[ActionSet] | None
) -> tuple[Fraction, ActionSet]:
    """Receiver's favorite action at the belief, over ``pool`` or all actions."""
    if pool is not None:
        values = [(expected_value(instance.receiver, xi, S), S) for S in pool]
        if instance.sense is Sense.MAX:
            best = max(v for v, _ in values)
        else:
            best = min(v for v, _ in values)
        action = min(S for v, S in values if v == best)
        return best, action
    if instance.receiver.kind is UtilityKind.LINEAR:
        weights = _receiver_weights(instance, xi.xi)
        action = matroid.max_weight_action(instance.constraint, weights, instance.sense)
        return expected_value(instance.receiver, xi, action), action
    raise UnsupportedCombination("tabular receiver needs an explicit action pool")


def _solve_scheme_lp(
    instance: Instance,
    actions: list[ActionSet],
    deviation_pool: list[ActionSet] | None,
    method: str,
    catalog_size: int | None,
) -> SolveResult:
    num_states = instance.num_states
    maximize = instance.sense is Sense.MAX
    index = {}
    labels = []
    for t in range(num_states):
        for S in actions:
            index[(t, S)] = len(labels)
            labels.append((t, S))

    model = lp.LPModel(len(labels), sense=lp.MAX if maximize else lp.MIN)
    model.set_objective(
        [
            instance.prior[t] * instance.sender.value(t, S)
            for (t, S) in labels
        ]
    )
    for t in range(num_states):
        model.add_row({index[(t, S)]: 1 for S in actions}, lp.EQ, 1)

    r_value = instance.receiver.value
    added: set[tuple[ActionSet, ActionSet]] = set()
    pivots = 0
    rounds = 0
    while True:
        result = lp.solve(model)
        if result.status != lp.OPTIMAL:
            raise CertificateError(f"scheme LP is bounded and feasible, yet ended {result.status}")
        pivots += result.pivots
        rounds += 1
        phi = {
            (t, S): result.x[index[(t, S)]]
            for t in range(num_states)
            for S in actions
            if result.x[index[(t, S)]] != 0
        }
        scheme = SignalingScheme.from_phi(num_states, phi)
        new_pairs = []
        for S in scheme.support:
            if signal_mass(instance, scheme, S) == 0:
                continue
            xi = posterior(instance, scheme, S)
            own = expected_value(instance.receiver, xi, S)
            best, alt = _best_deviation(instance, xi, deviation_pool)
            beaten = best > own if maximize else best < own
            if beaten and (S, alt) not in added:
                new_pairs.append((S, alt))
        if not new_pairs:
            value = result.value
            break
        for S, alt in new_pairs:
            added.add((S, alt))
            coeffs = {
                index[(t, S)]: instance.prior[t] * (r_value(t, S) - r_value(t, alt))
                for t in range(num_states)
            }
            model.add_row(coeffs, lp.GE if maximize else lp.LE, 0)

    recomputed = expected_sender_value(instance, scheme)
    if recomputed != value:
        raise CertificateError("scheme value drifted from the LP optimum")
    return SolveResult(
        scheme=scheme,
        sender_value=value,
        method=method,
        catalog_size=catalog_size,
        lp_stats={
            "pivots": pivots,
            "cut_rounds": rounds,
            "pair_rows": len(added),
            "columns": len(labels),
        },
    )


def solve_full(instance: Instance, max_actions: int | None = None) -> SolveResult:
    """Exact optimum of the brute-force LP over every feasible action."""
    actions = enumerate_actions(instance.constraint, instance.num_elements, max_actions)
    pool = None if instance.receiver.kind is UtilityKind.LINEAR else actions
    return _solve_scheme_lp(instance, actions, pool, "full-lp", None)


def solve_reduced(instance: Instance) -> SolveResult:
    """Exact optimum over the best-response catalog (matroid, linear, max).

    Matches ``solve_full`` exactly on clean instances.  On degenerate
    instances the catalog comes from the tie-broken (perturbed) utilities and
    may omit actions that are optimal only on measure-zero belief sets, so
    the value can fall below ``solve_full``; ``lp_stats["perturbed"]``
    records when that caveat applies.
    """
    from .best_response import enumerate_best_responses

    catalog = enumerate_best_responses(instance)
    actions = list(catalog.actions)
    result = _solve_scheme_lp(instance, actions, actions, "reduced-lp", len(actions))
    result.lp_stats["perturbed"] = catalog.perturbed
    return result


def deviation_pool(
    instance: Instance, max_actions: int | None = None
) -> tuple[list[ActionSet], str]:
    """The receiver's alternatives and how they were found.

    Every feasible action (``"enumerated"``); if that is too large and the
    instance is a linear max-sense matroid one, the best-response catalog
    (``"catalog"``), which holds a best response at every belief.
    """
    try:
        return enumerate_actions(instance.constraint, instance.num_elements, max_actions), "enumerated"
    except TooLarge:
        if not (
            isinstance(instance.constraint, MATROID_KINDS)
            and instance.receiver.kind is UtilityKind.LINEAR
            and instance.sense is Sense.MAX
        ):
            raise
    from .best_response import enumerate_best_responses

    return list(enumerate_best_responses(instance).actions), "catalog"


def check_persuasive(
    instance: Instance,
    scheme: SignalingScheme,
    max_actions: int | None = None,
    pool: tuple[list[ActionSet], str] | None = None,
) -> PersuasivenessReport:
    """Exact persuasiveness audit of a scheme: no tolerance, weak inequalities.

    Scans every alternative in ``pool``, by default ``deviation_pool``'s
    (the catalog fallback is recorded in ``method``).
    """
    alternatives, method = pool if pool is not None else deviation_pool(instance, max_actions)
    maximize = instance.sense is Sense.MAX
    violations = []
    for S in scheme.support:
        if signal_mass(instance, scheme, S) == 0:
            continue
        xi = posterior(instance, scheme, S)
        own = expected_value(instance.receiver, xi, S)
        for alt in alternatives:
            other = expected_value(instance.receiver, xi, alt)
            gap = other - own if maximize else own - other
            if gap > 0:
                violations.append((S, alt, gap))
    return PersuasivenessReport(
        persuasive=not violations, violations=tuple(violations), method=method
    )


def expected_sender_value(instance: Instance, scheme: SignalingScheme) -> Fraction:
    total = ZERO
    for (t, S), p in scheme.phi.items():
        if p != 0:
            total += instance.prior[t] * p * instance.sender.value(t, S)
    return total


def uninformative_scheme(
    instance: Instance, actions: list[ActionSet] | None = None
) -> tuple[SignalingScheme, Fraction]:
    """Always-recommend-one-action scheme: receiver best response to the prior,
    ties resolved in the sender's favor (then lexicographically)."""
    if actions is None:
        actions = enumerate_actions(instance.constraint, instance.num_elements)
    prior = Posterior(xi=instance.prior)
    pick = tie_broken_response(instance, prior, actions)
    return deterministic_scheme(instance.num_states, pick), expected_value(instance.sender, prior, pick)


def tie_broken_response(instance: Instance, xi: Posterior, actions: list[ActionSet]) -> ActionSet:
    """The receiver's best action at the belief among ``actions``, ties
    resolved in the sender's favor, then by the lexicographically least."""
    best = max if instance.sense is Sense.MAX else min
    r_vals = {S: expected_value(instance.receiver, xi, S) for S in actions}
    best_r = best(r_vals.values())
    ties = [S for S in actions if r_vals[S] == best_r]
    s_vals = {S: expected_value(instance.sender, xi, S) for S in ties}
    best_s = best(s_vals.values())
    return min(S for S in ties if s_vals[S] == best_s)
