"""Optimal persuasive signaling via exact linear programs.

Every engine, here and in ``cce``, solves one sender LP, ``scheme_lp``,
and returns through one check, ``certify``.  The full solver enumerates
every feasible action and optimizes over direct schemes subject to
persuasiveness: for each recommended action S and every alternative S',
the receiver must weakly prefer S under the posterior that S induces.  In
the path/minimization setting the receiver minimizes cost, the sender
minimizes its own cost, and the persuasiveness inequality flips.

Persuasiveness rows are generated lazily: the LP starts with only the
per-state probability rows, and after each solve the receiver's best
deviation at every recommended action's posterior is computed (greedy /
shortest path / table scan); violated pair rows are added until none
remain, at which point the relaxed optimum is feasible for - and therefore
equal to - the full LP optimum.

The reduced solver recommends only best-response catalog members;
deviations still range over every feasible action.

Every best-action question (``best_deviation``, ``tie_broken_response`` and
the exact oracle of ``cce``) goes through ``best_action``: one greedy or
shortest-path call for linear utilities, so a linear instance's scheme is
audited with no action enumerated, else one scan of the feasible actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm

from . import lp, matroid, paths
from .errors import CertificateError, InstanceFormatError, TooLarge
from .model import (
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
from .paths import shortest_path  # unused here; bench/test_bench.py checks that the tracer wraps this binding
from .rationals import ONE, ZERO

MATROID_ENUM_LIMIT = 20

PERSUASIVE, RELAXED = "persuasive", "relaxed"  # the notions ``certify`` checks

__all__ = [
    "SolveResult",
    "PersuasivenessReport",
    "enumerate_actions",
    "solve_full",
    "solve_reduced",
    "check_persuasive",
    "best_action",
    "best_deviation",
    "uninformative_scheme",
    "tie_broken_response",
    "expected_sender_value",
    "scheme_lp",
    "certify",
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
    violations: tuple  # (recommended, best deviation, gap), one per disobeyed signal


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


def _atoms(utility, xi: tuple[Fraction, ...]) -> list[Fraction]:
    """Values that every action's expected value at the belief is a sum of:
    each element's expected value (linear), or each table entry times its
    state's probability (tabular)."""
    if utility.kind is UtilityKind.LINEAR:
        rows = utility.linear
        return [
            sum((xi[t] * rows[t][e] for t in range(len(xi))), ZERO)
            for e in range(len(rows[0]))
        ]
    return [p * v for p, table in zip(xi, utility.tabular) for v in table.values()]


def best_action(
    instance: Instance, xi: Posterior, a: Fraction, b: Fraction, pool: list[ActionSet] | None = None
) -> ActionSet:
    """A feasible action maximizing (min sense: minimizing) ``a * R + b * S``,
    R and S the receiver's and sender's expected values at the belief.

    With no ``pool`` and linear utilities wherever the coefficient is
    nonzero: one ``matroid.max_weight_action`` call (greedy, or Dijkstra on
    a path) on the weights ``a * r_e + b * s_e``, ties in its order.  Else
    a scan of ``pool`` (default: every feasible action), ties going to the
    lexicographically least action.
    """
    terms = [(c, u) for c, u in ((a, instance.receiver), (b, instance.sender)) if c != 0]
    if pool is None and all(u.kind is UtilityKind.LINEAR for _, u in terms):
        rows = [(c * p, u.linear[t]) for c, u in terms for t, p in enumerate(xi.xi) if p != 0]
        weights = [
            sum((f * row[e] for f, row in rows), ZERO) for e in range(instance.num_elements)
        ]
        return matroid.max_weight_action(instance.constraint, weights, instance.sense)
    if pool is None:
        pool = enumerate_actions(instance.constraint, instance.num_elements)
    sign = -1 if instance.sense is Sense.MAX else 1
    return min(pool, key=lambda S: (sign * sum((c * expected_value(u, xi, S) for c, u in terms), ZERO), S))


def best_deviation(
    instance: Instance, xi: Posterior, pool: list[ActionSet] | None = None
) -> tuple[Fraction, ActionSet]:
    """The receiver's best value at the belief and an action attaining it:
    ``best_action`` with a = 1, b = 0."""
    action = best_action(instance, xi, ONE, ZERO, pool)
    return expected_value(instance.receiver, xi, action), action


def _violations(
    instance: Instance, scheme: SignalingScheme, pool: list[ActionSet] | None = None
) -> list[tuple[ActionSet, ActionSet, Fraction]]:
    """(recommended, best deviation, gap) for every signal the receiver
    would rather not obey; one ``best_deviation`` call per signal, scanning
    ``pool`` (default: every feasible action) for a tabular receiver."""
    if pool is None and instance.receiver.kind is not UtilityKind.LINEAR:
        pool = enumerate_actions(instance.constraint, instance.num_elements)
    maximize = instance.sense is Sense.MAX
    out = []
    for S in scheme.support:
        if signal_mass(instance, scheme, S) == 0:
            continue
        xi = posterior(instance, scheme, S)
        own = expected_value(instance.receiver, xi, S)
        best, alt = best_deviation(instance, xi, pool)
        gap = best - own if maximize else own - best
        if gap > 0:
            out.append((S, alt, gap))
    return out


def scheme_lp(
    instance: Instance, columns: list[tuple[int, ActionSet]], obedience_rows: list
) -> tuple[SignalingScheme, lp.LPResult]:
    """The sender's LP over the (state, action) ``columns``: rows 0 .. D - 1
    are the state masses, then each of ``obedience_rows``, a pair (list or
    dict of column coefficients, rhs), reads ``>=`` (min sense: ``<=``).
    Returns the scheme and the certified solve, or raises CertificateError."""
    maximize = instance.sense is Sense.MAX
    model = lp.LPModel(len(columns), sense=lp.MAX if maximize else lp.MIN)
    model.set_objective([instance.prior[t] * instance.sender.value(t, S) for t, S in columns])
    for state in range(instance.num_states):
        model.add_row({j: ONE for j, (t, _) in enumerate(columns) if t == state}, lp.EQ, ONE)
    for coeffs, rhs in obedience_rows:
        model.add_row(coeffs, lp.GE if maximize else lp.LE, rhs)
    result = lp.solve(model)
    if result.status != lp.OPTIMAL:
        raise CertificateError(f"scheme LP is bounded and feasible, yet ended {result.status}")
    phi = {col: v for col, v in zip(columns, result.x) if v != 0}
    return SignalingScheme.from_phi(instance.num_states, phi), result


def _solve_scheme_lp(
    instance: Instance, actions: list[ActionSet], method: str, catalog_size: int | None
) -> SolveResult:
    """``scheme_lp`` recommending ``actions``, with persuasiveness rows added
    lazily.  Only ``solve_full``, whose ``actions`` are every feasible
    action, passes a tabular receiver, so they serve as its deviation pool."""
    pool = None if instance.receiver.kind is UtilityKind.LINEAR else actions
    columns = [(t, S) for t in range(instance.num_states) for S in actions]
    index = {col: j for j, col in enumerate(columns)}
    r_value = instance.receiver.value
    rows: list = []
    added: set[tuple[ActionSet, ActionSet]] = set()
    pivots = 0
    rounds = 0
    while True:
        scheme, result = scheme_lp(instance, columns, rows)
        pivots += result.pivots
        rounds += 1
        new_pairs = [
            (S, alt)
            for S, alt, _ in _violations(instance, scheme, pool)
            if (S, alt) not in added
        ]
        if not new_pairs:
            break
        for S, alt in new_pairs:
            added.add((S, alt))
            coeffs = {
                index[(t, S)]: instance.prior[t] * (r_value(t, S) - r_value(t, alt))
                for t in range(instance.num_states)
            }
            rows.append((coeffs, ZERO))

    certify(instance, scheme, result.value, PERSUASIVE)
    return SolveResult(
        scheme=scheme,
        sender_value=result.value,
        method=method,
        catalog_size=catalog_size,
        lp_stats={
            "pivots": pivots,
            "cut_rounds": rounds,
            "pair_rows": len(added),
            "columns": len(columns),
        },
    )


def solve_full(instance: Instance, max_actions: int | None = None) -> SolveResult:
    """Exact optimum of the brute-force LP over every feasible action."""
    actions = enumerate_actions(instance.constraint, instance.num_elements, max_actions)
    return _solve_scheme_lp(instance, actions, "full-lp", None)


def solve_reduced(instance: Instance) -> SolveResult:
    """Exact optimum over the best-response catalog (matroid, linear, max):
    the catalog's actions are the recommendations, and each is checked
    against the receiver's exact best deviation.

    Matches ``solve_full`` exactly on clean instances.  On degenerate
    instances the catalog comes from the tie-broken (perturbed) utilities and
    may omit actions that are optimal only on measure-zero belief sets, so
    the value can fall below ``solve_full``; ``lp_stats["perturbed"]``
    records when that caveat applies.
    """
    from .best_response import enumerate_best_responses

    catalog = enumerate_best_responses(instance)
    actions = list(catalog.actions)
    result = _solve_scheme_lp(instance, actions, "reduced-lp", len(actions))
    result.lp_stats["perturbed"] = catalog.perturbed
    return result


def _check_scheme(instance: Instance, scheme: SignalingScheme) -> None:
    """The scheme has the instance's states and recommends only feasible actions."""
    if scheme.num_states != instance.num_states:
        raise InstanceFormatError(
            f"scheme has {scheme.num_states} states, the instance {instance.num_states}"
        )
    if isinstance(instance.constraint, PathGraph):
        feasible = partial(paths.is_path_action, instance.constraint)
        what = "a source-sink path"
    else:
        feasible = matroid.oracle_for(instance.constraint, instance.num_elements).is_independent
        what = "independent"
    for S in scheme.support:
        if not feasible(S):
            raise InstanceFormatError(f"recommended action {list(S)} is not {what}")


def check_persuasive(instance: Instance, scheme: SignalingScheme) -> PersuasivenessReport:
    """Exact persuasiveness audit of a scheme: no tolerance, weak inequalities.

    Each signal is decided by its best deviation: one greedy or
    shortest-path call for a linear receiver, a scan of every feasible
    action for a tabular one.  A scheme for another number of states, or
    one recommending an infeasible action, raises InstanceFormatError.
    """
    _check_scheme(instance, scheme)
    violations = tuple(_violations(instance, scheme))
    return PersuasivenessReport(persuasive=not violations, violations=violations)


def certify(instance: Instance, scheme: SignalingScheme, value: Fraction, notion: str) -> None:
    """Every engine's exit check; raises ``CertificateError``, also under
    ``python -O``.  The scheme recommends only feasible actions, is worth
    ``value`` to the sender, and is obeyed: ``PERSUASIVE``, no signal has a
    better deviation; ``RELAXED``, following is worth at least (min sense:
    at most) the best prior action.  No LP is solved."""
    try:
        _check_scheme(instance, scheme)
    except InstanceFormatError as exc:
        raise CertificateError(f"solver emitted an invalid scheme: {exc}") from exc
    worth = _scheme_value(instance, scheme, instance.sender)
    if worth != value:
        raise CertificateError(f"scheme is worth {worth} to the sender, not the {value} reported")
    if notion == PERSUASIVE:
        if violations := _violations(instance, scheme):
            S, alt, gap = violations[0]
            raise CertificateError(f"signal {list(S)} is disobeyed: {list(alt)} is better by {gap}")
    else:
        prior_best, _ = best_deviation(instance, Posterior(xi=instance.prior))
        follow = _scheme_value(instance, scheme, instance.receiver)
        if (follow < prior_best) if instance.sense is Sense.MAX else (follow > prior_best):
            raise CertificateError(f"following is worth {follow} to the receiver, its prior best {prior_best}")


def _scheme_value(instance: Instance, scheme: SignalingScheme, utility) -> Fraction:
    total = ZERO
    for (t, S), p in scheme.phi.items():
        if p != 0:
            total += instance.prior[t] * p * utility.value(t, S)
    return total


def expected_sender_value(instance: Instance, scheme: SignalingScheme) -> Fraction:
    return _scheme_value(instance, scheme, instance.sender)


def uninformative_scheme(instance: Instance) -> tuple[SignalingScheme, Fraction]:
    """Always-recommend-one-action scheme: the receiver's best response to the
    prior, ties resolved in the sender's favor (``tie_broken_response``)."""
    prior = Posterior(xi=instance.prior)
    pick = tie_broken_response(instance, prior)
    return deterministic_scheme(instance.num_states, pick), expected_value(instance.sender, prior, pick)


def tie_broken_response(instance: Instance, xi: Posterior) -> ActionSet:
    """The receiver's best action at the belief, ties resolved in the
    sender's favor: ``best_action`` with a = 1 and b = ``delta``.

    ``delta = 1 / (L * (1 + M))``: L is the lcm of the denominators of the
    receiver's ``_atoms`` at the belief, M the sum of the sender's.  Every
    receiver value R(A) is a sum of atoms, so two are equal or at least 1/L
    apart; utilities are nonnegative, so sender values lie in [0, M] and
    ``delta * |S(A) - S(B)| < 1/L``.  Hence ``R + delta * S`` orders actions
    by R, then by S: its optimum is receiver-optimal and, among those, the
    sender's favorite.  Actions tied in both go to greedy's element order or
    Dijkstra's edge sequence for linear utilities, to the lexicographically
    least action for tabular ones.
    """
    r = _atoms(instance.receiver, xi.xi)
    s = _atoms(instance.sender, xi.xi)
    delta = 1 / (lcm(*(w.denominator for w in r)) * (1 + sum(s, ZERO)))
    return best_action(instance, xi, ONE, delta)
