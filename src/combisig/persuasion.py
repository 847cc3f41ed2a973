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
equal to - the full LP optimum.  One model is kept across the rounds: its
objective and state rows are built once, and each round appends its new
pair rows, all ints over one denominator from the integer view (below), so
``lp.solve`` resumes the last round's optimal tableau and pays only the
dual simplex pivots that the new rows need.

The reduced solver recommends only best-response catalog members;
deviations still range over every feasible action.

A belief is a list B of nonnegative integers, not all zero, read over its
sum: the prior is ``instance.masses[0]``, signal S's belief its
``_signals`` weights (mu_t * phi(t, S) times one integer), so no engine
forms a ``Fraction`` posterior.  Every best-action question
(``best_deviation``, ``tie_broken_response``, the obedience pass) goes
through one integer dispatch, ``_best``: one greedy or shortest-path call
when every weighted utility is linear, so a linear instance's scheme is
audited with no action enumerated, else one scan of ``feasible_actions``,
the instance's actions enumerated once, on first use, and kept on it.  It,
the obedience pass and the scheme value (``certify`` builds a scheme's
signals once for both) run in integers on the integer view (``model``): B
times a view row D * u_t gives sum(B) * D times the expected singleton
values, the ``Fraction`` weights times one positive integer.  That keeps
greedy's order, ties (index order) and sign filter, each comparison of
Dijkstra's path sums and each scan's argmax and ties: the same actions
come back at B and at any c * B.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd

from . import lp, matroid, paths
from .errors import CertificateError, InstanceFormatError, TooLarge
from .model import (
    ActionSet,
    Instance,
    PathGraph,
    Record,
    SignalingScheme,
    Sense,
    UtilityKind,
    deterministic_scheme,
)
# unused here; bench/test_bench.py checks that the tracer wraps these bindings
from .model import expected_value
from .paths import shortest_path
from .rationals import over_one_denominator

MATROID_ENUM_LIMIT = 20

PERSUASIVE, RELAXED = "persuasive", "relaxed"  # the notions ``certify`` checks

__all__ = [
    "SolveResult",
    "PersuasivenessReport",
    "enumerate_actions",
    "feasible_actions",
    "solve_full",
    "solve_reduced",
    "check_persuasive",
    "best_deviation",
    "uninformative_scheme",
    "tie_broken_response",
    "tie_broken_responses",
    "expected_sender_value",
    "scheme_lp",
    "certify",
]


class SolveResult(Record):
    """``method`` is "full-lp", "reduced-lp", "cce-cutting-plane" or "cce-ellipsoid".
    ``lp_stats``, the effort counters by name, is rebuilt on access from
    ``stats`` and a names tuple that results with the same counters share."""

    __slots__ = ("scheme", "sender_value", "method", "catalog_size", "stat_names", "stats")
    _names: dict[tuple[str, ...], tuple[str, ...]] = {}  # one shared tuple per set of counter names

    def __init__(
        self,
        scheme: SignalingScheme,
        sender_value: Fraction,
        method: str,
        catalog_size: int | None = None,
        lp_stats: dict | None = None,
    ):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "sender_value", sender_value)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "catalog_size", catalog_size)
        names = tuple(lp_stats or ())
        object.__setattr__(self, "stat_names", self._names.setdefault(names, names))
        object.__setattr__(self, "stats", tuple((lp_stats or {}).values()))

    def __reduce__(self):
        return type(self), (self.scheme, self.sender_value, self.method, self.catalog_size, self.lp_stats)

    @property
    def lp_stats(self) -> dict:
        return dict(zip(self.stat_names, self.stats))


class PersuasivenessReport(Record):
    """``violations`` holds (recommended, best deviation, gap), one per disobeyed signal."""

    __slots__ = ("persuasive", "violations")

    def __init__(self, persuasive: bool, violations: tuple):
        object.__setattr__(self, "persuasive", persuasive)
        object.__setattr__(self, "violations", violations)


class _Disobeyed(CertificateError):
    """``certify``'s verdict on a scheme some signal of which the receiver
    would rather not obey; ``violations`` lists every such signal."""

    def __init__(self, violations: list[tuple[ActionSet, ActionSet, Fraction]]):
        S, alt, gap = violations[0]
        super().__init__(f"signal {list(S)} is disobeyed: {list(alt)} is better by {gap}")
        self.violations = violations


def enumerate_actions(constraint, n: int, max_actions: int | None = None) -> list[ActionSet]:
    """Every feasible action: all independent sets, or all source-sink paths."""
    if isinstance(constraint, PathGraph):
        cap = paths.DEFAULT_PATH_CAP if max_actions is None else max_actions
        return paths.enumerate_paths(constraint, cap=cap)
    if n > MATROID_ENUM_LIMIT:
        raise TooLarge(
            f"ground set of {n} elements is too large to enumerate", MATROID_ENUM_LIMIT
        )
    out: list[ActionSet] = []
    _extend(matroid.oracle_for(constraint, n), n, max_actions, 0, [], out)
    return out


def _extend(oracle, n: int, max_actions: int | None, start: int, prefix: list[int], out: list) -> None:
    """Append the independent set ``prefix`` and, depth first, each of its
    extensions by elements from ``start`` on.  (A module-level recursion:
    a recursive closure is a reference cycle, left to the cyclic collector.)"""
    out.append(tuple(prefix))
    if max_actions is not None and len(out) > max_actions:
        raise TooLarge("more actions than the requested cap", max_actions)
    for e in range(start, n):
        prefix.append(e)
        if oracle.is_independent(tuple(prefix)):
            _extend(oracle, n, max_actions, e + 1, prefix, out)
        prefix.pop()


def feasible_actions(instance: Instance, max_actions: int | None = None) -> tuple[ActionSet, ...]:
    """Every feasible action, enumerated (``enumerate_actions``) on first use
    and kept on the instance (``_actions``): the actions at first use, so an
    ``OracleMatroid`` id re-registered afterwards is not seen.  More than
    ``max_actions`` (a path's default: ``paths.DEFAULT_PATH_CAP``) raise the
    enumeration's ``TooLarge``, kept or not; a refused call keeps nothing."""
    path = isinstance(instance.constraint, PathGraph)
    cap = paths.DEFAULT_PATH_CAP if path and max_actions is None else max_actions
    try:
        actions = instance._actions
    except AttributeError:
        actions = tuple(enumerate_actions(instance.constraint, instance.num_elements, cap))
        object.__setattr__(instance, "_actions", actions)
    if cap is not None and len(actions) > cap:
        raise TooLarge(f"more than {cap} source-sink paths" if path else "more actions than the requested cap", cap)
    return actions


def _int_weights(n: int, parts) -> list[int]:
    """Per element e < n, the sum over (utility, belief) in ``parts`` of
    ``sum_t belief[t] * (the utility's view row t)[e]``."""
    weights = [0] * n
    for utility, belief in parts:
        for b, row in zip(belief, utility.ints[0]):
            if b:
                weights = [w + b * v for w, v in zip(weights, row)]
    return weights


def _int_value(utility, belief: list[int], action: ActionSet) -> int:
    """``sum_t belief[t] * (the view)_t(action)``."""
    return sum(b * utility.int_value(t, action) for t, b in enumerate(belief) if b)


def _best(instance: Instance, parts) -> ActionSet:
    """A feasible action maximizing (min sense: minimizing) the sum over
    (utility, belief) in ``parts`` of ``_int_value``: with every utility
    linear, one ``matroid.max_weight_action`` call (greedy, or Dijkstra on
    a path) on those element weights, ties in its order; else a scan of
    ``feasible_actions``, ties going to the lexicographically least action."""
    if all(u.kind is UtilityKind.LINEAR for u, _ in parts):
        weights = _int_weights(instance.num_elements, parts)
        return matroid.max_weight_action(instance.constraint, weights, instance.sense)
    sign = -1 if instance.sense is Sense.MAX else 1
    return min(feasible_actions(instance), key=lambda S: (sign * sum(_int_value(u, w, S) for u, w in parts), S))


def best_deviation(instance: Instance, belief: list[int]) -> tuple[Fraction, ActionSet]:
    """The receiver's best value at the belief and an action attaining it:
    ``_best`` on the receiver alone."""
    receiver = instance.receiver
    action = _best(instance, [(receiver, belief)])
    return Fraction(_int_value(receiver, belief, action), sum(belief) * receiver.ints[1]), action


def _signals(instance: Instance, scheme: SignalingScheme) -> tuple[list, int]:
    """(S, W) per recommended action S, W_t = mu_t * phi(t, S) times ``den``,
    the product of the masses' and the probabilities' one denominators."""
    masses, mass_den = instance.masses
    probs, prob_den = over_one_denominator(scheme.probs)
    T = scheme.num_states
    weights = [[m * p for m, p in zip(masses, probs[k * T : (k + 1) * T])] for k in range(len(scheme.support))]
    return list(zip(scheme.support, weights)), mass_den * prob_den


def _violations(instance: Instance, scheme: SignalingScheme, signals=None) -> list[tuple]:
    """(recommended, best deviation, gap) for every signal the receiver
    would rather not obey, decided in integers: signal S's ``_signals``
    (``signals``, if the caller built them) weights W are its posterior times
    sum(W) * den, so ``_int_value`` of (receiver, W) is the expected value
    there times sum(W) * den * D_r, and ``_best`` on it is the best
    deviation.  Only a gap becomes a Fraction."""
    receiver = instance.receiver
    signals, _ = signals or _signals(instance, scheme)
    sign = 1 if instance.sense is Sense.MAX else -1
    out = []
    for S, W in signals:
        if not any(W):
            continue
        alt = _best(instance, [(receiver, W)])
        gap = sign * (_int_value(receiver, W, alt) - _int_value(receiver, W, S))
        if gap > 0:
            out.append((S, alt, Fraction(gap, sum(W) * receiver.ints[1])))
    return out


def _scheme_model(instance: Instance, columns: list[tuple[int, ActionSet]]) -> lp.LPModel:
    """``scheme_lp``'s model before any obedience row: objective, state rows.
    The objective mu_t * s_t(S) comes from the integer view, over one denominator."""
    (masses, mass_den), sender = instance.masses, instance.sender
    model = lp.LPModel(len(columns), sense=lp.MAX if instance.sense is Sense.MAX else lp.MIN)
    model.set_objective([masses[t] * sender.int_value(t, S) for t, S in columns], mass_den * sender.ints[1])
    for state in range(instance.num_states):
        model.add_row({j: 1 for j, (t, _) in enumerate(columns) if t == state}, lp.EQ, 1)
    return model


def scheme_lp(
    instance: Instance, columns: list[tuple[int, ActionSet]], obedience_rows: list, model: lp.LPModel | None = None
) -> tuple[SignalingScheme, lp.LPResult]:
    """The sender's LP over the (state, action) ``columns``: rows 0 .. D - 1
    are the state masses, then each of ``obedience_rows``, a triple (list or
    dict of integer column coefficients, rhs, their positive denominator),
    reads ``>=`` (min sense: ``<=``).
    ``model``, this LP over the same columns from ``_scheme_model`` or an
    earlier call, keeps its rows and gets only ``obedience_rows`` appended.
    Returns the scheme and the certified solve, or raises CertificateError."""
    model = model or _scheme_model(instance, columns)
    for coeffs, rhs, den in obedience_rows:
        model.add_row(coeffs, lp.GE if instance.sense is Sense.MAX else lp.LE, rhs, den)
    result = lp.solve(model)
    if result.status != lp.OPTIMAL:
        raise CertificateError(f"scheme LP is bounded and feasible, yet ended {result.status}")
    return SignalingScheme.from_phi(instance.num_states, dict(zip(columns, result.x))), result


def _solve_scheme_lp(
    instance: Instance, actions: list[ActionSet], method: str, catalog_size: int | None, **stats
) -> SolveResult:
    """``scheme_lp`` recommending ``actions``, with persuasiveness rows added
    lazily to one model.  Each round's scheme goes to ``certify``, whose
    obedience pass names the new pair rows when it fails and ends the loop
    when it holds, so the returned scheme is audited once.  ``stats`` are
    more counters for ``lp_stats``."""
    columns = [(t, S) for t in range(instance.num_states) for S in actions]
    index = {col: j for j, col in enumerate(columns)}
    masses, mass_den = instance.masses
    r_value, pair_den = instance.receiver.int_value, mass_den * instance.receiver.ints[1]
    model = _scheme_model(instance, columns)
    rows: list = []
    added: set[tuple[ActionSet, ActionSet]] = set()
    pivots = 0
    rounds = 0
    while True:
        scheme, result = scheme_lp(instance, columns, rows, model)
        pivots += result.pivots
        rounds += 1
        try:
            certify(instance, scheme, result.value, PERSUASIVE)
            break
        except _Disobeyed as exc:
            # A pair row already in the LP holds there, so its pair cannot recur.
            new_pairs = [(S, alt) for S, alt, _ in exc.violations if (S, alt) not in added]
            if not new_pairs:
                raise
        rows = []
        for S, alt in new_pairs:
            added.add((S, alt))
            coeffs = {
                index[(t, S)]: masses[t] * (r_value(t, S) - r_value(t, alt))
                for t in range(instance.num_states)
            }
            rows.append((coeffs, 0, pair_den))

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
            **stats,
        },
    )


def solve_full(instance: Instance, max_actions: int | None = None) -> SolveResult:
    """Exact optimum of the brute-force LP over every feasible action."""
    return _solve_scheme_lp(instance, feasible_actions(instance, max_actions), "full-lp", None)


def solve_reduced(instance: Instance) -> SolveResult:
    """Exact optimum over the best-response catalog (matroid, linear, max):
    the catalog's actions, and the uninformative scheme's, are the
    recommendations, and each is checked against the receiver's exact best
    deviation.  That scheme is feasible in the LP, so the value is never
    below the uninformative one.

    Matches ``solve_full`` exactly on clean instances.  On degenerate
    instances the catalog comes from the tie-broken (perturbed) utilities and
    may omit actions that are optimal only on measure-zero belief sets, so
    the value can fall below ``solve_full``; ``lp_stats["perturbed"]``
    records when that caveat applies.
    """
    from .best_response import enumerate_best_responses

    catalog = enumerate_best_responses(instance)
    actions = sorted({*catalog.actions, tie_broken_response(instance, instance.masses[0])})
    return _solve_scheme_lp(instance, actions, "reduced-lp", len(actions), perturbed=catalog.perturbed)


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

    Each signal is decided by its best deviation (``_best``).  A scheme for
    another number of states, or one recommending an infeasible action,
    raises InstanceFormatError.
    """
    _check_scheme(instance, scheme)
    violations = tuple(_violations(instance, scheme))
    return PersuasivenessReport(persuasive=not violations, violations=violations)


def certify(instance: Instance, scheme: SignalingScheme, value: Fraction, notion: str) -> None:
    """Every engine's exit check; raises ``CertificateError``, also under
    ``python -O``.  The scheme recommends only feasible actions, is worth
    ``value`` to the sender, and is obeyed: ``PERSUASIVE``, no signal has a
    better deviation; ``RELAXED``, following is worth at least (min sense:
    at most) the best prior action.  No LP is solved.  A disobeyed signal
    raises ``_Disobeyed``, which lists every one: the lazy-row loop of
    ``full`` and ``reduced`` takes its new pair rows from that verdict."""
    try:
        _check_scheme(instance, scheme)
    except InstanceFormatError as exc:
        raise CertificateError(f"solver emitted an invalid scheme: {exc}") from exc
    signals = _signals(instance, scheme)
    worth = _scheme_value(instance, scheme, instance.sender, signals)
    if worth != value:
        raise CertificateError(f"scheme is worth {worth} to the sender, not the {value} reported")
    if notion == PERSUASIVE:
        if violations := _violations(instance, scheme, signals):
            raise _Disobeyed(violations)
    else:
        prior_best, _ = best_deviation(instance, instance.masses[0])
        follow = _scheme_value(instance, scheme, instance.receiver, signals)
        if (follow < prior_best) if instance.sense is Sense.MAX else (follow > prior_best):
            raise CertificateError(f"following is worth {follow} to the receiver, its prior best {prior_best}")


def _scheme_value(instance: Instance, scheme: SignalingScheme, utility, signals=None) -> Fraction:
    """The scheme's expected value of ``utility``; ``signals`` as for ``_violations``."""
    signals, den = signals or _signals(instance, scheme)
    return Fraction(sum(_int_value(utility, W, S) for S, W in signals), den * utility.ints[1])


def expected_sender_value(instance: Instance, scheme: SignalingScheme) -> Fraction:
    return _scheme_value(instance, scheme, instance.sender)


def uninformative_scheme(instance: Instance) -> tuple[SignalingScheme, Fraction]:
    """Always-recommend-one-action scheme: the receiver's best response to the
    prior, ties resolved in the sender's favor (``tie_broken_response``)."""
    scheme = deterministic_scheme(instance.num_states, tie_broken_response(instance, instance.masses[0]))
    return scheme, expected_sender_value(instance, scheme)


def tie_broken_response(instance: Instance, belief: list[int]) -> ActionSet:
    """The receiver's best action at the belief, ties resolved in the
    sender's favor.

    With B the belief divided by its gcd and D_r, D_s the view
    denominators, ``_int_value`` gives ``sum(B) * D_r * R(A)`` and
    ``sum(B) * D_s * S(A)``, integers, and M, every sender view entry
    weighted by B, bounds the second for every action and edge set
    (utilities are nonnegative).  Two receiver values are equal or 1 apart
    there, so the key ``(1 + M) * sum(B) * D_r * R + sum(B) * D_s * S``,
    ``_best`` on the parts (receiver, (1 + M) * B) and (sender, B), orders
    actions, elements and path prefixes by R, then by S: its optimum is
    receiver-optimal and, among those, the sender's favorite.  Actions tied
    in both go to greedy's element order or Dijkstra's edge sequence for
    linear utilities, to the lexicographically least action for tabular
    ones.  The key grows with the square of the belief's scale; divided by
    its gcd, a signal's weights are its posterior's numerators over their
    lcm.
    """
    g = gcd(*belief)
    B = [b // g for b in belief]
    rows, _ = instance.sender.ints
    M = sum(m * sum(row.values() if isinstance(row, dict) else row) for m, row in zip(B, rows))
    return _best(instance, [(instance.receiver, [(1 + M) * b for b in B]), (instance.sender, B)])


def tie_broken_responses(instance: Instance, scheme: SignalingScheme) -> dict[ActionSet, ActionSet]:
    """Per recommendation sent with positive probability, the receiver's
    ``tie_broken_response`` at its ``_signals`` weights."""
    signals, _ = _signals(instance, scheme)
    return {S: tie_broken_response(instance, W) for S, W in signals if any(W)}
