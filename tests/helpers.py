"""Shared generators and independent brute-force oracles for the test suite.

Every oracle here is written from the problem definitions directly (no reuse
of solver internals beyond plain LP plumbing), so agreement between solvers
and these oracles is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt, lcm, sqrt

from combisig import arrangement, cce, lp, matroid
from combisig.jsonio import format_rational
from combisig.model import (
    ActionSet,
    Graphic,
    Instance,
    OracleMatroid,
    Partition,
    PathGraph,
    Sense,
    SignalingScheme,
    Uniform,
    UtilitySpec,
    expected_value,
    posterior,
    signal_mass,
)
from combisig.persuasion import enumerate_actions, expected_sender_value

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def rand_partition_blocks(rng: random.Random, n: int):
    """Random consecutive blocks of size <= 3 with caps 1..block size."""
    blocks = []
    caps = []
    i = 0
    while i < n:
        size = min(rng.randint(1, 3), n - i)
        blocks.append(tuple(range(i, i + size)))
        caps.append(rng.randint(1, size))
        i += size
    return tuple(blocks), tuple(caps)


_ORACLE_SEQ = itertools.count()


def rand_matroid(rng: random.Random, n: int, kind: str):
    """A constraint of the requested kind on n elements.

    "oracle" wraps a random partition law behind a registered independence
    callable, exercising the oracle plumbing with a true matroid.
    """
    if kind == "uniform":
        return Uniform(rng.randint(1, max(1, n - 1)))
    if kind == "partition":
        blocks, caps = rand_partition_blocks(rng, n)
        return Partition(blocks, caps)
    if kind == "graphic":
        num_v = rng.randint(3, 5)
        pairs = list(itertools.combinations(range(num_v), 2))
        rng.shuffle(pairs)
        return Graphic(num_v, tuple(sorted(pairs[:n])))
    if kind == "oracle":
        blocks, caps = rand_partition_blocks(rng, n)
        oracle_id = f"tests-partition-{next(_ORACLE_SEQ)}"

        def is_independent(subset, _blocks=blocks, _caps=caps):
            chosen = set(subset)
            return all(
                sum(1 for e in blk if e in chosen) <= cap
                for blk, cap in zip(_blocks, _caps)
            )

        matroid.register_independence_oracle(oracle_id, is_independent)
        return OracleMatroid(oracle_id)
    raise ValueError(kind)


def rand_utility(rng: random.Random, n_states: int, n: int, lo=1, hi=9) -> UtilitySpec:
    return UtilitySpec.from_linear(
        [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n_states)]
    )


def rand_prior(rng: random.Random, n_states: int):
    weights = [rng.randint(1, 9) for _ in range(n_states)]
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def rand_instance(
    rng: random.Random,
    n_states: int,
    n: int,
    kind: str = "uniform",
    sense: Sense = Sense.MAX,
    lo: int = 1,
    hi: int = 9,
) -> Instance:
    if sense is Sense.MIN:
        constraint = layered_path_graph(rng, n)
        n = len(constraint.edges)
    else:
        constraint = rand_matroid(rng, n, kind)
        if isinstance(constraint, Graphic):
            n = len(constraint.edges)
    return Instance(
        state_names=tuple(f"s{t}" for t in range(n_states)),
        prior=rand_prior(rng, n_states),
        element_names=tuple(f"e{i}" for i in range(n)),
        sender=rand_utility(rng, n_states, n, lo, hi),
        receiver=rand_utility(rng, n_states, n, lo, hi),
        constraint=constraint,
        sense=sense,
    )


def grid_path_graph(rows: int, cols: int) -> PathGraph:
    """A rows x cols grid DAG, edges right and down, from the top-left to the
    bottom-right vertex: 2·rows·cols - rows - cols edges and
    C(rows + cols - 2, rows - 1) source-sink paths."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return PathGraph(num_vertices=rows * cols, edges=tuple(edges), source=0, sink=rows * cols - 1)


def grid_path_instance(
    rng: random.Random, rows: int, cols: int, n_states: int, lo: int = 1, hi: int = 9
) -> Instance:
    """Min-sense instance on ``grid_path_graph`` with random linear costs."""
    constraint = grid_path_graph(rows, cols)
    n = len(constraint.edges)
    return Instance(
        state_names=tuple(f"s{t}" for t in range(n_states)),
        prior=rand_prior(rng, n_states),
        element_names=tuple(f"e{i}" for i in range(n)),
        sender=rand_utility(rng, n_states, n, lo, hi),
        receiver=rand_utility(rng, n_states, n, lo, hi),
        constraint=constraint,
        sense=Sense.MIN,
    )


def layered_path_graph(rng: random.Random, n: int) -> PathGraph:
    """A two-hop digraph: source -> {mid_1..mid_w} -> sink, 2w <= n edges."""
    width = max(1, min(n // 2, 3))
    edges = []
    for j in range(width):
        edges.append((0, 1 + j))
        edges.append((1 + j, 1 + width))
    return PathGraph(num_vertices=width + 2, edges=tuple(edges), source=0, sink=width + 1)


def rand_clean_instance(
    rng: random.Random,
    n_states: int,
    n: int,
    kind: str,
    max_tries: int = 200,
    lo: int = 1,
    hi: int = 9,
) -> Instance:
    from combisig.best_response import check_nondegeneracy

    for _ in range(max_tries):
        inst = rand_instance(rng, n_states, n, kind, lo=lo, hi=hi)
        if check_nondegeneracy(inst).clean:
            return inst
    raise AssertionError(f"no clean instance found for kind={kind}, n={n}")


# ---------------------------------------------------------------------------
# coverage-style submodular sender (for the 1/2-greedy oracle)
# ---------------------------------------------------------------------------


def coverage_instance(
    rng: random.Random, n: int, n_states: int, universe: int = 5
) -> Instance:
    """Tabular weighted-coverage sender (monotone submodular), linear receiver."""
    weights = [
        [F(rng.randint(1, 5)) for _ in range(universe)] for _ in range(n_states)
    ]
    covers = [
        frozenset(rng.sample(range(universe), rng.randint(1, universe)))
        for _ in range(n)
    ]
    tables = [{} for _ in range(n_states)]
    for subset_size in range(n + 1):
        for subset in itertools.combinations(range(n), subset_size):
            covered = frozenset().union(*(covers[e] for e in subset)) if subset else frozenset()
            for t in range(n_states):
                tables[t][subset] = sum((weights[t][u] for u in covered), start=ZERO)
    sender = UtilitySpec.from_tabular(tables)
    return Instance(
        state_names=tuple(f"s{t}" for t in range(n_states)),
        prior=rand_prior(rng, n_states),
        element_names=tuple(f"e{i}" for i in range(n)),
        sender=sender,
        receiver=rand_utility(rng, n_states, n),
        constraint=Uniform(rng.randint(1, max(1, n - 1))),
    )


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def maximal_actions(instance: Instance) -> list[ActionSet]:
    actions = enumerate_actions(instance.constraint, instance.num_elements)
    pool = set(actions)
    out = []
    for S in actions:
        grown = any(
            tuple(sorted(S + (e,))) in pool
            for e in range(instance.num_elements)
            if e not in S
        )
        if not grown:
            out.append(S)
    return out


def brute_weak_optimal_actions(instance: Instance) -> set[ActionSet]:
    """I* by definition: S with some belief making it weakly receiver-optimal.

    With strictly positive utilities only maximal independent sets can be
    weakly optimal, and it is enough to test against other maximal sets.
    Membership is a feasibility LP over the belief simplex.
    """
    assert instance.sense is Sense.MAX
    bases = maximal_actions(instance)
    D = instance.num_states
    r = instance.receiver.value
    winners: set[ActionSet] = set()
    for S in bases:
        model = lp.LPModel(D, sense=lp.MAX)
        model.set_objective([ZERO] * D)
        model.add_row({t: F(1) for t in range(D)}, lp.EQ, 1)
        for other in bases:
            if other == S:
                continue
            model.add_row(
                {t: r(t, S) - r(t, other) for t in range(D)}, lp.GE, 0
            )
        if lp.solve(model).status == lp.OPTIMAL:
            winners.add(S)
    return winners


def brute_cce_value(instance: Instance, actions: list[ActionSet] | None = None):
    """Direct LP for the relaxed (aggregate-obedience) problem.

    Variables phi[t, S]; per-state masses sum to one; a single row forcing
    the prior-expected receiver value of following the scheme to beat the
    best fixed action under the prior.
    """
    from combisig.cce import prior_best_value

    if actions is None:
        actions = enumerate_actions(instance.constraint, instance.num_elements)
    maximize = instance.sense is Sense.MAX
    D = instance.num_states
    C, _ = prior_best_value(instance)
    labels = [(t, S) for t in range(D) for S in actions]
    index = {lab: i for i, lab in enumerate(labels)}
    model = lp.LPModel(len(labels), sense=lp.MAX if maximize else lp.MIN)
    model.set_objective(
        [instance.prior[t] * instance.sender.value(t, S) for (t, S) in labels]
    )
    model.add_row(
        {
            index[(t, S)]: instance.prior[t] * instance.receiver.value(t, S)
            for (t, S) in labels
        },
        lp.GE if maximize else lp.LE,
        C,
    )
    for t in range(D):
        model.add_row({index[(t, S)]: F(1) for S in actions}, lp.EQ, 1)
    result = lp.solve(model)
    assert result.status == lp.OPTIMAL
    return result.value


def follow_value(instance: Instance, scheme: SignalingScheme):
    """The receiver's expected value of always following the scheme: the
    left side of the relaxed obedience row."""
    return sum(
        (instance.prior[t] * p * instance.receiver.value(t, S) for (t, S), p in scheme.phi.items()),
        ZERO,
    )


def sweep_weak_optimal_2state(instance: Instance) -> set[ActionSet]:
    """Exact 1-D sweep oracle for two-state instances.

    Beliefs are (1-t, t).  Expected action values are linear in t, so the
    weak-argmax correspondence only changes at pairwise crossing points;
    sampling every breakpoint and every midpoint between consecutive
    breakpoints observes every weak argmax, including endpoint and
    crossing ties.
    """
    assert instance.num_states == 2 and instance.sense is Sense.MAX
    bases = maximal_actions(instance)
    r = instance.receiver.value
    lines = {S: (r(0, S), r(1, S) - r(0, S)) for S in bases}  # value = a + b t

    points = {F(0), F(1)}
    for (a1, b1), (a2, b2) in itertools.combinations(lines.values(), 2):
        if b1 != b2:
            t = F(a2 - a1, b1 - b2)
            if 0 <= t <= 1:
                points.add(t)
    ordered = sorted(points)
    probes = list(ordered)
    for lo, hi in zip(ordered, ordered[1:]):
        probes.append((lo + hi) / 2)

    winners: set[ActionSet] = set()
    for t in probes:
        values = {S: a + b * t for S, (a, b) in lines.items()}
        best = max(values.values())
        winners.update(S for S, v in values.items() if v == best)
    return winners


def _rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    m = [[F(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def nondegeneracy_by_permutations(instance: Instance) -> tuple[bool, int]:
    """Reference audit by the definition: walk every permutation of the
    elements, and test each distinct set of min(|states|, n - 1)
    consecutive pairs for independent receiver difference vectors.  Returns
    (clean, families checked).  It visits n! permutations, so keep n small.
    """
    D = instance.num_states
    n = instance.num_elements
    d = min(D, n - 1)
    psi = [[instance.receiver.linear[t][e] for t in range(D)] for e in range(n)]
    seen: set[frozenset] = set()
    clean = True
    for perm in itertools.permutations(range(n)):
        for positions in itertools.combinations(range(n - 1), d):
            family = frozenset(frozenset((perm[i], perm[i + 1])) for i in positions)
            if family in seen:
                continue
            seen.add(family)
            vectors = [
                [a - b for a, b in zip(psi[perm[i]], psi[perm[i + 1]])] for i in positions
            ]
            if _rank(vectors) < d:
                clean = False
    return clean, len(seen)


def scan_tie_broken_response(instance: Instance, belief, actions: list[ActionSet]) -> ActionSet:
    """Reference sender-preferred best response by scanning ``actions``: the
    receiver's best value at the belief, then the sender's, then the
    lexicographically least action."""
    best = max if instance.sense is Sense.MAX else min
    r_vals = {S: expected_value(instance.receiver, belief, S) for S in actions}
    best_r = best(r_vals.values())
    ties = [S for S in actions if r_vals[S] == best_r]
    s_vals = {S: expected_value(instance.sender, belief, S) for S in ties}
    best_s = best(s_vals.values())
    return min(S for S in ties if s_vals[S] == best_s)


def lex_weights_order(psi, point, tie_break) -> list[int]:
    """Reference perturbed element order at a belief: element e's weight as
    the coefficient tuple of eps^0..eps^n (its exact expected weight at
    ``point``, then its bump tie_break[e mod D] at index e + 1), sorted
    descending by tuple comparison, ties kept in ascending index."""
    n = len(psi)
    num_states = len(point)
    weights = []
    for e in range(n):
        base = sum((point[t] * psi[e][t] for t in range(num_states)), ZERO)
        tiers = [ZERO] * n
        tiers[e] = tie_break[e % num_states]
        weights.append((base, *tiers))
    return sorted(range(n), key=lambda e: weights[e], reverse=True)


def replace_fields(record, **changes):
    """A new ``record`` of the same type with the named fields replaced; the
    constructor runs, so the result is validated like any other."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def as_tables(instance: Instance) -> Instance:
    """The instance with both utilities written as tables over every
    feasible action."""
    actions = enumerate_actions(instance.constraint, instance.num_elements)
    if () not in actions:
        actions = [(), *actions]

    def tables(util):
        return UtilitySpec.from_tabular(
            [{S: util.value(t, S) for S in actions} for t in range(instance.num_states)]
        )

    return replace_fields(instance, receiver=tables(instance.receiver), sender=tables(instance.sender))


# ---------------------------------------------------------------------------
# Monte Carlo reference for `combisig validate`
# ---------------------------------------------------------------------------


def _fraction_draw(rng: random.Random, pairs) -> int:
    """Index into ``pairs`` (item, Fraction weight) by exact cumulative draw."""
    r = F(rng.getrandbits(53), 1 << 53)
    acc = ZERO
    for idx, (_, w) in enumerate(pairs):
        acc += w
        if r < acc:
            return idx
    return len(pairs) - 1


def validate_sampling_reference(
    instance: Instance,
    scheme: SignalingScheme,
    samples: int,
    seed: int,
    actions: list[ActionSet] | None = None,
) -> dict:
    """The sampling fields of a ``validate`` report, computed the direct way:
    the receiver's responses by scanning ``actions`` (by default every
    feasible action), one ``Fraction`` comparison walk per draw and running
    sums of the sender value of every sample, in draw order."""
    if actions is None:
        actions = enumerate_actions(instance.constraint, instance.num_elements)
    responses = {
        action: scan_tie_broken_response(instance, posterior(instance, scheme, action), actions)
        for action in scheme.support
        if signal_mass(instance, scheme, action) != 0
    }
    rng = random.Random(seed)
    prior_pairs = [(t, instance.prior[t]) for t in range(instance.num_states)]
    per_state = {
        t: [(a, p) for (tt, a), p in sorted(scheme.phi.items()) if tt == t and p > 0]
        for t in range(instance.num_states)
    }
    total = ZERO
    total_sq = ZERO
    for _ in range(samples):
        t = prior_pairs[_fraction_draw(rng, prior_pairs)][0]
        action = per_state[t][_fraction_draw(rng, per_state[t])][0]
        value = instance.sender.value(t, responses[action])
        total += value
        total_sq += value * value
    mean = total / samples
    var = total_sq / samples - mean * mean
    se = sqrt(max(float(var), 0.0) / samples)
    exact = expected_sender_value(instance, scheme)
    gap = abs(float(mean - exact))
    disagree = gap > 4 * se if se > 0 else mean != exact
    return {
        "empirical_mean": format_rational(mean),
        "standard_error": repr(se),
        "ci95": [repr(float(mean) - 1.96 * se), repr(float(mean) + 1.96 * se)],
        "within_4se": not disagree,
    }


def wide_uniform_instance() -> Instance:
    """21 elements, 3 states, ``Uniform(2)``: more actions than
    ``persuasion.MATROID_ENUM_LIMIT`` allows to enumerate and more linear
    forests than the audit cap, with receiver columns repeating every third
    element."""
    cols = [((3, 0, 1), (0, 3, 1), (1, 1, 2))[e % 3] for e in range(21)]
    return Instance(
        state_names=("s0", "s1", "s2"),
        prior=(F(1, 2), F(1, 4), F(1, 4)),
        element_names=tuple(f"e{i}" for i in range(21)),
        sender=UtilitySpec.from_linear([[(7 * e + t) % 5 for e in range(21)] for t in range(3)]),
        receiver=UtilitySpec.from_linear([[c[t] for c in cols] for t in range(3)]),
        constraint=Uniform(2),
    )


# ---------------------------------------------------------------------------
# reference simplex for `combisig.lp`
# ---------------------------------------------------------------------------


class _FractionTableau:
    """Dense two-phase tableau in ``Fraction`` arithmetic, Bland's rule:
    the straightforward kernel that ``lp.solve``'s integer tableau must
    reproduce pivot for pivot."""

    def __init__(self, n_struct, a_rows, rels, rhs):
        self.m = len(a_rows)
        self.pivots = 0
        cols = n_struct
        self.slack_col = [None] * self.m
        self.surplus_col = [None] * self.m
        self.art_col = [None] * self.m
        for i, rel in enumerate(rels):
            if rel == lp.LE:
                self.slack_col[i] = cols
                cols += 1
            elif rel == lp.GE:
                self.surplus_col[i] = cols
                cols += 1
        for i, rel in enumerate(rels):
            if rel in (lp.GE, lp.EQ):
                self.art_col[i] = cols
                cols += 1
        self.ncols = cols
        self.tab = []
        self.basis = []
        for i in range(self.m):
            row = list(a_rows[i]) + [ZERO] * (cols - n_struct)
            for col, v in ((self.slack_col[i], 1), (self.surplus_col[i], -1), (self.art_col[i], 1)):
                if col is not None:
                    row[col] = F(v)
            row.append(rhs[i])
            self.tab.append(row)
            self.basis.append(self.art_col[i] if self.art_col[i] is not None else self.slack_col[i])
        self.artificial = {c for c in self.art_col if c is not None}

    def pivot(self, row, col):
        self.pivots += 1
        prow = self.tab[row] = [v / self.tab[row][col] for v in self.tab[row]]
        for r, other in enumerate(self.tab):
            if r != row and other[col] != 0:
                self.tab[r] = [a - other[col] * b for a, b in zip(other, prow)]
        self.basis[row] = col

    def reduced_costs(self, costs):
        zrow = list(costs)
        for i, bv in enumerate(self.basis):
            zrow = [z - costs[bv] * a for z, a in zip(zrow, self.tab[i])]
        return zrow

    def bland(self, costs, allowed):
        while True:
            zrow = self.reduced_costs(costs)
            enter = next((j for j in allowed if zrow[j] > 0), None)
            if enter is None:
                return lp.OPTIMAL
            ratios = [
                (row[-1] / row[enter], self.basis[i], i)
                for i, row in enumerate(self.tab)
                if row[enter] > 0
            ]
            if not ratios:
                return lp.UNBOUNDED
            self.pivot(min(ratios)[2], enter)

    def solution(self):
        z = [ZERO] * self.ncols
        for i, bv in enumerate(self.basis):
            z[bv] = self.tab[i][-1]
        return z


def fraction_simplex(model: lp.LPModel) -> lp.LPResult:
    """``lp.solve`` on the ``Fraction`` reference tableau, uncertified."""
    n = model.num_vars
    maximize = model.sense == lp.MAX
    flipped = {lp.LE: lp.GE, lp.GE: lp.LE, lp.EQ: lp.EQ}
    flips = [row.rhs < 0 for row in model.rows]
    tab = _FractionTableau(
        n,
        [[-v for v in row.coeffs] if flip else row.coeffs for row, flip in zip(model.rows, flips)],
        [flipped[row.rel] if flip else row.rel for row, flip in zip(model.rows, flips)],
        [abs(row.rhs) for row in model.rows],
    )
    if tab.artificial:
        allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
        tab.bland([F(-1) if j in tab.artificial else ZERO for j in range(tab.ncols)], allowed)
        if any(tab.solution()[c] != 0 for c in tab.artificial):
            return lp.LPResult(status=lp.INFEASIBLE, pivots=tab.pivots)
        for i in range(tab.m):
            if tab.basis[i] in tab.artificial:
                j = next((j for j in allowed if tab.tab[i][j] != 0), None)
                if j is not None:
                    tab.pivot(i, j)
    costs = [(c if maximize else -c) for c in model.objective] + [ZERO] * (tab.ncols - n)
    allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
    if tab.bland(costs, allowed) == lp.UNBOUNDED:
        return lp.LPResult(status=lp.UNBOUNDED, pivots=tab.pivots)
    x = tab.solution()[:n]
    zrow = tab.reduced_costs(costs)
    duals = []
    for i in range(tab.m):
        if tab.slack_col[i] is not None:
            y = -zrow[tab.slack_col[i]]
        elif tab.surplus_col[i] is not None:
            y = zrow[tab.surplus_col[i]]
        else:
            y = -zrow[tab.art_col[i]]
        y = -y if flips[i] else y
        duals.append(y if maximize else -y)
    value = sum((c * v for c, v in zip(model.objective, x)), ZERO)
    return lp.LPResult(status=lp.OPTIMAL, value=value, x=x, duals=duals, pivots=tab.pivots)


# ---------------------------------------------------------------------------
# reference cell walk for `combisig.arrangement`
# ---------------------------------------------------------------------------


def _fraction_solve_2x2(a1, a2, b1, b2) -> tuple[Fraction, Fraction] | None:
    det = F(a1[0]) * a2[1] - F(a1[1]) * a2[0]
    if det == 0:
        return None
    # Solve a1 . y = -b1, a2 . y = -b2 by Cramer's rule.
    y0 = (F(-b1) * a2[1] - F(a1[1]) * (-b2)) / det
    y1 = (F(a1[0]) * (-b2) - F(-b1) * a2[0]) / det
    return (y0, y1)


def fraction_walk(cutting, simplex) -> dict:
    """``arrangement._walk`` with every probe stepped and evaluated in
    ``Fraction`` arithmetic: vertices from ``Fraction`` Cramer solves, and
    each probe's signs, inside flag and boundary support read off the
    stepped point itself.  The integer walk must return the same cells,
    witnesses, flags and boundary beliefs, in the same order."""
    evaluate, step, sign = arrangement._evaluate, arrangement._step_point, arrangement._sign
    funcs = cutting + simplex
    dim = len(simplex) - 1
    found: dict[tuple[int, ...], list] = {}

    def probe(vertex, direction) -> None:
        y = step(vertex, direction, funcs)
        inside = all(evaluate(f, y) > 0 for f in simplex)
        key = tuple(sign(evaluate(f, y)) for f in cutting)
        known = found.get(key)
        if known is None:
            known = found[key] = [y, inside, {}]
        elif inside and not known[1]:
            known[0], known[1] = y, True
        support = tuple(evaluate(f, vertex) > 0 for f in simplex)
        if not all(support):
            known[2].setdefault(support, vertex)

    if dim == 1:
        seen_roots: set[Fraction] = set()
        for a, b in funcs:
            root = F(-b, a[0])
            if root in seen_roots:
                continue
            seen_roots.add(root)
            if any(evaluate(f, (root,)) < 0 for f in simplex):
                continue
            for direction in ((1,), (-1,)):
                probe((root,), direction)
        return found
    vertices: dict[tuple[Fraction, Fraction], None] = {}
    for (a1, b1), (a2, b2) in itertools.combinations(funcs, 2):
        v = _fraction_solve_2x2(a1, a2, b1, b2)
        if v is None or any(evaluate(f, v) < 0 for f in simplex):
            continue
        vertices.setdefault(v)
    half = F(1, 2)
    for v in ((half, ZERO), (ZERO, half), (half, half)):
        vertices.setdefault(v)
    for v in vertices:
        rays: list[tuple[int, int]] = []
        for a, b in funcs:
            if evaluate((a, b), v) == 0:
                rays.extend((arrangement._primitive_ray((-a[1], a[0])), arrangement._primitive_ray((a[1], -a[0]))))
        for direction in arrangement._sector_directions(rays):
            probe(v, direction)
    return found


# ---------------------------------------------------------------------------
# reference rank test for `combisig.best_response`
# ---------------------------------------------------------------------------


def fraction_independent(vectors) -> bool:
    """``best_response._independent`` in ``Fraction`` arithmetic: row echelon
    elimination, each vector's first nonzero entry cleared from the vectors
    after it; a vector reduced to zero is dependent."""
    m = [[F(a) for a in v] for v in vectors]
    for r, row in enumerate(m):
        col = next((c for c, a in enumerate(row) if a != 0), None)
        if col is None:
            return False
        inv = row[col]
        for k in range(r + 1, len(m)):
            factor = m[k][col] / inv
            if factor != 0:
                m[k] = [a - factor * b for a, b in zip(m[k], row)]
    return True


# ---------------------------------------------------------------------------
# reference ellipsoid for `combisig.cce`
# ---------------------------------------------------------------------------


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination in ``Fraction`` arithmetic."""
    size = len(m)
    a = [[F(v) for v in row] for row in m]
    det = F(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / a[col][col]
            if f != 0:
                a[r] = [u - f * w for u, w in zip(a[r], a[col])]
    return det


def _round_down(v: Fraction, bits: int) -> Fraction:
    shift = 1 << bits
    return F(v.numerator * shift // v.denominator, shift)


def _sqrt_up(value: Fraction, bits: int) -> Fraction:
    """sqrt(value) rounded up to a multiple of 2^-bits."""
    shift = 1 << bits
    scaled = value.numerator * shift * shift // value.denominator
    root = isqrt(scaled)
    if root * root < scaled:
        root += 1
    return F(root, shift)


def fraction_separation(view, x, y: Fraction):
    """``cce.separation`` in ``Fraction`` arithmetic at the point (x, y):
    state t's oracle answer S is a violated row when
    x_t < mu_t * (s_t(S) + y * r_t(S)) (``>`` for minimize).  Returns
    (rows, proposals)."""
    inst = view.instance
    rows, proposals = [], []
    for t in range(inst.num_states):
        S = view.oracle.fn(t, y)
        proposals.append((t, S))
        lhs = inst.prior[t] * (inst.sender.value(t, S) + y * inst.receiver.value(t, S))
        if (x[t] < lhs) if inst.sense is Sense.MAX else (x[t] > lhs):
            rows.append((t, S))
    return rows, proposals


def fraction_half_greedy(instance: Instance, state: int, y: Fraction) -> tuple[ActionSet, int]:
    """The half-greedy oracle's answer with ``Fraction`` keys: repeatedly add
    the element that keeps the set independent with the largest sender gain
    plus y * r_e, the least such e among ties.  Returns (action, the number
    of steps whose largest key was tied)."""
    oracle = matroid.oracle_for(instance.constraint, instance.num_elements)
    s, r = instance.sender.value, instance.receiver.linear[state]
    chosen: ActionSet = ()
    ties = 0
    while True:
        keys = {}
        for e in range(instance.num_elements):
            cand = tuple(sorted((*chosen, e)))
            if e not in chosen and oracle.is_independent(cand):
                keys[e] = s(state, cand) - s(state, chosen) + y * r[e]
        if not keys:
            return chosen, ties
        top = max(keys.values())
        best = [e for e, k in keys.items() if k == top]
        ties += len(best) > 1
        chosen = tuple(sorted((*chosen, best[0])))


def fraction_ellipsoid_run(view, v: Fraction, v_min: Fraction, v_max: Fraction):
    """``cce._ellipsoid_run`` computed in ``Fraction`` arithmetic: a
    ``Fraction`` shape matrix and center, each rounded down to a multiple of
    2^-``CENTER_DENOM_BITS`` after every update, and the volume test on a
    ``Fraction`` determinant.  The straightforward kernel that the integer
    one must reproduce iterate for iterate; returns (feasible, proposals,
    iterations)."""
    bits = cce.CENTER_DENOM_BITS
    inst = view.instance
    D = inst.num_states
    N = D + 1
    mu = inst.prior
    one = F(1)

    big_r, _ = cce._action_value_bounds(inst.receiver, D, inst.num_elements)
    x0 = v_max * max(mu)
    Y = (v_max + D * x0) / max(view.C, v_min)
    box_hi = [max(h, one) for h in [mu[t] * (v_max + Y * big_r) for t in range(D)] + [Y]]
    center = [h / 2 for h in box_hi]
    radius_sq = sum((h / 2) ** 2 for h in box_hi)
    P = [[radius_sq if i == j else ZERO for j in range(N)] for i in range(N)]

    eps_prime = view.epsilon * v_min
    threshold_sq = ((eps_prime / (4 * N * (1 + v_max))) ** N) ** 2
    iter_cap = 400 * N * N * (cce._ceil_log2(v_max / eps_prime) + 65)
    proposals: set = set()
    sense_max = inst.sense is Sense.MAX

    def find_cut(z):
        x, y = z[:D], z[D]
        if y < 0:
            return [ZERO] * D + [-one]
        for j in range(N):
            if z[j] > box_hi[j]:
                return [one if i == j else ZERO for i in range(N)]
            if z[j] < 0 and j < D:
                return [-one if i == j else ZERO for i in range(N)]
        objective = sum(x, ZERO) - view.C * y
        if sense_max and objective > v:
            return [one] * D + [-view.C]
        if not sense_max and objective < v:
            return [-one] * D + [view.C]
        den = lcm(*(c.denominator for c in z))
        X = [c.numerator * (den // c.denominator) for c in z]
        rows, prop = cce.separation(view, X[:D], X[D], den)
        proposals.update(prop)
        if not rows:
            return None
        t, S = rows[0]
        coeff = mu[t] * inst.receiver.value(t, S)
        a = [ZERO] * N
        a[t], a[D] = (-one, coeff) if sense_max else (one, -coeff)
        return a

    iterations = 0
    while True:
        assert iterations < iter_cap
        iterations += 1
        center = [_round_down(c, bits) for c in center]
        cut = find_cut(center)
        if cut is None:
            return True, proposals, iterations
        if iterations % 8 == 0 and fraction_det(P) <= threshold_sq:
            return False, proposals, iterations
        pa = [sum((P[i][j] * cut[j] for j in range(N)), ZERO) for i in range(N)]
        apa = sum((cut[i] * pa[i] for i in range(N)), ZERO)
        if apa <= 0:
            return False, proposals, iterations
        s = _sqrt_up(apa, bits)
        center = [c - F(1, N + 1) * (p / s) for c, p in zip(center, pa)]
        scale = F(N * N, N * N - 1) * (1 + cce.MATRIX_INFLATION)
        P = [
            [_round_down(scale * (P[i][j] - F(2, N + 1) * pa[i] * pa[j] / apa), bits) for j in range(N)]
            for i in range(N)
        ]
