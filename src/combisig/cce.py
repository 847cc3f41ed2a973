"""Coarse-correlated-equilibrium persuasion: exact and approximate solvers.

Under the relaxed obedience notion, the receiver only compares following the
scheme against the single best action under the prior, worth C in
expectation.  The optimal scheme is then the LP: maximize expected sender
value subject to per-state signal distributions and one aggregate row
requiring the receiver's expected value to beat C.

Two solver paths:

* ``solve_cce_exact`` — cutting planes on the dual with an exact
  best-response oracle; terminates with the exact optimum.
* ``solve_cce_approx`` — binary search over the dual value combined with
  the ellipsoid method driven by an alpha-approximate oracle; returns a
  scheme worth at least (alpha - epsilon) times the optimum.  This is the
  path that stays polynomial when the sender's utility can only be
  approximately maximized (e.g. submodular, via the half-greedy oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable

from . import lp, matroid, paths
from .errors import (
    CertificateError,
    DegenerateBounds,
    IterationCap,
    NonLinearReceiver,
    OracleContractViolation,
    ParameterError,
    UnsupportedCombination,
    UnsupportedSense,
)
from .model import (
    MATROID_KINDS,
    ActionSet,
    Instance,
    PathGraph,
    Sense,
    SignalingScheme,
    UtilityKind,
)
from .persuasion import SolveResult, enumerate_actions, uninformative_scheme
from .rationals import ONE, ZERO, as_fraction

DEFAULT_CUT_CAP = 10_000
DEFAULT_EPSILON = Fraction(1, 10)
CENTER_DENOM_BITS = 128  # ellipsoid centers/matrix rounded to this denominator size
MATRIX_INFLATION = Fraction(1, 1 << 10)  # keeps rounded ellipsoids containing


@dataclass(frozen=True)
class ApproxOracle:
    """Returns, for (state, y>=0), an action within factor alpha of
    max/min over independent sets of s_state(S) + y * r_state(S); the
    receiver part y*r must never be approximated."""

    kind: str  # "exact-linear-greedy" | "exact-shortest-path" | "brute" | "half-greedy" | "custom"
    alpha: Fraction
    fn: Callable[[int, Fraction], ActionSet]


@dataclass(frozen=True)
class DualPoint:
    x: tuple[Fraction, ...]
    y: Fraction


@dataclass(frozen=True)
class CCEInstanceView:
    instance: Instance
    oracle: ApproxOracle
    alpha: Fraction
    C: Fraction
    prior_best: ActionSet
    v_min: Fraction
    v_max: Fraction
    epsilon: Fraction
    audit: bool = False
    audit_pool: tuple[ActionSet, ...] = field(default=())


def prior_best_value(instance: Instance) -> tuple[Fraction, ActionSet]:
    """Receiver's best expected value (and action) under the prior alone."""
    if instance.receiver.kind is not UtilityKind.LINEAR:
        # Small tabular instances: scan the full action pool.
        acts = enumerate_actions(instance.constraint, instance.num_elements)

        def expval(S: ActionSet) -> Fraction:
            return sum(
                (
                    instance.prior[t] * instance.receiver.value(t, S)
                    for t in range(instance.num_states)
                ),
                ZERO,
            )

        pick = max if instance.sense is Sense.MAX else min
        best = pick(acts, key=expval)
        return expval(best), best
    weights = [
        sum(
            (instance.prior[t] * instance.receiver.singleton(t, e) for t in range(instance.num_states)),
            ZERO,
        )
        for e in range(instance.num_elements)
    ]
    action = matroid.max_weight_action(instance.constraint, weights, instance.sense)
    value = sum((weights[e] for e in action), ZERO)
    return value, action


def _utility_values(util, num_states: int, n: int) -> list[Fraction]:
    """Every atomic value: singletons (linear) or all table entries (tabular)."""
    if util.kind is UtilityKind.LINEAR:
        return [util.singleton(t, e) for t in range(num_states) for e in range(n)]
    return [v for table in util.tabular for v in table.values()]


def _action_value_bounds(util, num_states: int, n: int) -> tuple[Fraction, Fraction | None]:
    """(upper bound on any action's value, min positive value or None).

    Linear: any action's value is at most |E| times the largest singleton,
    and a positive action value is at least the smallest positive singleton.
    Tabular: scan the tables directly.
    """
    values = _utility_values(util, num_states, n)
    positive = [v for v in values if v > 0]
    mn = min(positive) if positive else None
    mx = max(values, default=ZERO)
    upper = Fraction(n) * mx if util.kind is UtilityKind.LINEAR else mx
    return upper, mn


def _rational_gcd(values) -> Fraction:
    from math import gcd, lcm

    nums = [v for v in values if v != 0]
    if not nums:
        return ZERO
    den = lcm(*[v.denominator for v in nums]) if len(nums) > 1 else nums[0].denominator
    g = 0
    for v in nums:
        g = gcd(g, int(v * den))
    return Fraction(g, den)


def compute_v_bounds(instance: Instance) -> tuple[Fraction, Fraction]:
    """Strict bracket (v_min, v_max) around any positive optimum.

    v_max strictly exceeds the best possible sender value (subadditivity of
    the sender utility over singletons).  v_min is below every positive
    value a vertex of the feasibility polytope can take: the product of the
    smallest positive prior, the smallest positive vertex coordinate, and
    the smallest positive singleton sender value.  Vertex coordinates are
    ratios whose numerator lies on the lattice generated by the prior
    masses (after clearing receiver denominators) and whose denominator is
    at most |E| times the largest receiver singleton.
    """
    from math import floor, lcm

    n = instance.num_elements
    D = instance.num_states
    s_bound, s_min = _action_value_bounds(instance.sender, D, n)
    if s_min is None:
        raise DegenerateBounds("all sender utility values are zero; optimum is zero")
    v_max = s_bound + 1

    r_bound, _ = _action_value_bounds(instance.receiver, D, n)
    if r_bound == 0:
        phi_min = ONE  # obedience row is vacuous; vertices are 0-1 vectors
    else:
        r_values = _utility_values(instance.receiver, D, n)
        scale = lcm(*[v.denominator for v in r_values])
        g = _rational_gcd(instance.prior)
        C, _ = prior_best_value(instance)
        c_scaled = C * scale
        rem = c_scaled - g * floor(c_scaled / g)
        precision = g if rem == 0 else min(rem, g - rem)
        phi_min = precision / (r_bound * scale)
        if phi_min > 1:
            phi_min = ONE
    mu_min = min(p for p in instance.prior if p > 0)
    v_min = mu_min * phi_min * s_min
    return v_min, v_max


def exact_linear_greedy_oracle(instance: Instance) -> ApproxOracle:
    if instance.sender.kind is not UtilityKind.LINEAR or instance.receiver.kind is not UtilityKind.LINEAR:
        raise UnsupportedCombination("greedy oracle needs linear sender and receiver utilities")
    if not isinstance(instance.constraint, MATROID_KINDS):
        raise UnsupportedCombination("greedy oracle needs a matroid constraint")
    if instance.sense is not Sense.MAX:
        raise UnsupportedSense("greedy oracle maximizes; use the shortest-path oracle")

    def fn(state: int, y: Fraction) -> ActionSet:
        weights = [
            instance.sender.singleton(state, e) + y * instance.receiver.singleton(state, e)
            for e in range(instance.num_elements)
        ]
        return matroid.max_weight_action(instance.constraint, weights, Sense.MAX)

    return ApproxOracle("exact-linear-greedy", ONE, fn)


def exact_shortest_path_oracle(instance: Instance) -> ApproxOracle:
    if not isinstance(instance.constraint, PathGraph) or instance.sense is not Sense.MIN:
        raise UnsupportedCombination("shortest-path oracle needs the minimize/path setting")
    if instance.sender.kind is not UtilityKind.LINEAR or instance.receiver.kind is not UtilityKind.LINEAR:
        raise UnsupportedCombination("shortest-path oracle needs linear utilities")

    def fn(state: int, y: Fraction) -> ActionSet:
        weights = [
            instance.sender.singleton(state, e) + y * instance.receiver.singleton(state, e)
            for e in range(instance.num_elements)
        ]
        return paths.shortest_path(instance.constraint, weights)

    return ApproxOracle("exact-shortest-path", ONE, fn)


def brute_oracle(instance: Instance, max_actions: int | None = None) -> ApproxOracle:
    """Exact oracle by full enumeration; only for small instances."""
    acts = enumerate_actions(instance.constraint, instance.num_elements, max_actions)
    best_of = max if instance.sense is Sense.MAX else min

    def fn(state: int, y: Fraction) -> ActionSet:
        def score(S: ActionSet) -> Fraction:
            return instance.sender.value(state, S) + y * instance.receiver.value(state, S)

        target = best_of(score(S) for S in acts)
        return next(S for S in acts if score(S) == target)

    return ApproxOracle("brute", ONE, fn)


def half_greedy_submodular_oracle(instance: Instance) -> ApproxOracle:
    """Marginal-gain greedy: 1/2-approximation for monotone submodular
    sender value plus the linear receiver part over a matroid."""
    if instance.sense is not Sense.MAX:
        raise UnsupportedSense("half-greedy oracle handles the maximize sense only")
    if not isinstance(instance.constraint, MATROID_KINDS):
        raise UnsupportedCombination("half-greedy oracle needs a matroid constraint")
    if instance.receiver.kind is not UtilityKind.LINEAR:
        raise NonLinearReceiver("half-greedy oracle needs a linear receiver utility")
    n = instance.num_elements
    oracle = matroid.oracle_for(instance.constraint, n)

    def fn(state: int, y: Fraction) -> ActionSet:
        chosen: list[int] = []
        value = instance.sender.value(state, ())
        remaining = set(range(n))
        while True:
            best: tuple[Fraction, int] | None = None
            for e in sorted(remaining):
                cand = tuple(sorted(chosen + [e]))
                if not oracle.is_independent(cand):
                    continue
                gain = (
                    instance.sender.value(state, cand)
                    - value
                    + y * instance.receiver.singleton(state, e)
                )
                if best is None or gain > best[0]:
                    best = (gain, e)
            if best is None:
                break
            _, e = best
            chosen.append(e)
            remaining.discard(e)
            value = instance.sender.value(state, tuple(sorted(chosen)))
        return tuple(sorted(chosen))

    return ApproxOracle("half-greedy", Fraction(1, 2), fn)


def make_view(
    instance: Instance,
    oracle: ApproxOracle | str = "exact",
    epsilon=DEFAULT_EPSILON,
    audit: bool = False,
    max_actions: int | None = None,
) -> CCEInstanceView:
    """Bundle an instance with its oracle, bracket, and search tolerance."""
    if isinstance(oracle, str):
        if oracle == "exact":
            if isinstance(instance.constraint, PathGraph):
                oracle = exact_shortest_path_oracle(instance)
            elif (
                instance.sender.kind is UtilityKind.LINEAR
                and instance.receiver.kind is UtilityKind.LINEAR
            ):
                oracle = exact_linear_greedy_oracle(instance)
            else:
                oracle = brute_oracle(instance, max_actions)
        elif oracle == "half-greedy":
            oracle = half_greedy_submodular_oracle(instance)
        else:
            raise ParameterError(f"unknown oracle name {oracle!r}")
    epsilon = as_fraction(epsilon)
    if not 0 < epsilon < oracle.alpha:
        raise ParameterError("epsilon must lie strictly between 0 and the oracle's alpha")
    C, S_C = prior_best_value(instance)
    try:
        v_min, v_max = compute_v_bounds(instance)
    except DegenerateBounds:
        # Optimum is zero; any positive bracket makes the search a no-op.
        v_min, v_max = Fraction(1, 2), ONE
    audit_pool: tuple[ActionSet, ...] = ()
    if audit:
        audit_pool = tuple(enumerate_actions(instance.constraint, instance.num_elements, max_actions))
    return CCEInstanceView(
        instance=instance,
        oracle=oracle,
        alpha=oracle.alpha,
        C=C,
        prior_best=S_C,
        v_min=v_min,
        v_max=v_max,
        epsilon=epsilon,
        audit=audit,
        audit_pool=audit_pool,
    )


def _audit_oracle(view: CCEInstanceView, state: int, y: Fraction, got: ActionSet) -> None:
    """Contract: s(got) + y*r(got) >= alpha*s(S') + y*r(S') for every feasible
    S' (the receiver part is never discounted).  Minimization needs alpha=1 and
    checks plain optimality."""
    inst = view.instance
    achieved = inst.sender.value(state, got) + y * inst.receiver.value(state, got)
    for S in view.audit_pool:
        other = inst.sender.value(state, S) + y * inst.receiver.value(state, S)
        if inst.sense is Sense.MAX:
            bar = view.alpha * inst.sender.value(state, S) + y * inst.receiver.value(state, S)
            bad = achieved < bar
        else:
            bad = achieved > other
        if bad:
            raise OracleContractViolation(
                f"oracle returned {got} at state {state}, y={y}: "
                f"value {achieved} misses the alpha bound against {S}"
            )


def separation(view: CCEInstanceView, point: DualPoint):
    """One oracle sweep: the violated rows at a dual point, if any.

    Returns (rows, proposals): ``rows`` lists violated (state, action)
    pairs — empty means (x/alpha, y/alpha) is feasible for the full dual —
    and ``proposals`` every oracle-returned pair (these become primal
    columns whether or not they cut).
    """
    inst = view.instance
    mu = inst.prior
    rows: list[tuple[int, ActionSet]] = []
    proposals: list[tuple[int, ActionSet]] = []
    for t in range(inst.num_states):
        S = view.oracle.fn(t, point.y)
        if view.audit:
            _audit_oracle(view, t, point.y, S)
        proposals.append((t, S))
        lhs = mu[t] * (inst.sender.value(t, S) + point.y * inst.receiver.value(t, S))
        violated = point.x[t] < lhs if inst.sense is Sense.MAX else point.x[t] > lhs
        if violated:
            rows.append((t, S))
    return rows, proposals


def _restricted_dual(view: CCEInstanceView, pairs) -> lp.LPResult:
    """min -C*y + sum x over the collected rows (mirrored for minimize)."""
    inst = view.instance
    D = inst.num_states
    maximize = inst.sense is Sense.MAX
    model = lp.LPModel(D + 1, lp.MIN if maximize else lp.MAX)
    model.set_objective([ONE] * D + [-view.C])
    # Every variable is >= 0, which costs nothing for x: an optimal x_t is
    # the largest (for minimize, smallest) mu_t * (s + y*r) over the collected
    # actions, and that is >= 0 because utilities are nonnegative and y >= 0.
    rel = lp.GE if maximize else lp.LE
    for t, S in pairs:
        coeffs = [ZERO] * (D + 1)
        coeffs[t] = ONE
        coeffs[D] = -inst.prior[t] * inst.receiver.value(t, S)
        model.add_row(coeffs, rel, inst.prior[t] * inst.sender.value(t, S))
    return lp.solve(model)


def _restricted_primal(view: CCEInstanceView, pairs) -> tuple[SignalingScheme, Fraction, int]:
    inst = view.instance
    D = inst.num_states
    columns = sorted(set(pairs) | {(t, view.prior_best) for t in range(D)})
    index = {col: k for k, col in enumerate(columns)}
    maximize = inst.sense is Sense.MAX
    model = lp.LPModel(len(columns), lp.MAX if maximize else lp.MIN)
    obj = [ZERO] * len(columns)
    cce_row = [ZERO] * len(columns)
    for (t, S), k in index.items():
        obj[k] = inst.prior[t] * inst.sender.value(t, S)
        cce_row[k] = inst.prior[t] * inst.receiver.value(t, S)
    model.set_objective(obj)
    model.add_row(cce_row, lp.GE if maximize else lp.LE, view.C)
    for t in range(D):
        row = [ZERO] * len(columns)
        for (tt, S), k in index.items():
            if tt == t:
                row[k] = ONE
        model.add_row(row, lp.EQ, ONE)
    res = lp.solve(model)
    if res.status != lp.OPTIMAL:  # cannot happen: prior-best columns are feasible
        raise IterationCap(f"restricted primal unexpectedly {res.status}")
    phi: dict[tuple[int, ActionSet], Fraction] = {}
    for (t, S), k in index.items():
        if res.x[k] != 0:
            phi[(t, S)] = phi.get((t, S), ZERO) + res.x[k]
    scheme = SignalingScheme.from_phi(D, phi)
    return scheme, res.value, res.pivots


def solve_cce_exact(view: CCEInstanceView, cut_cap: int = DEFAULT_CUT_CAP) -> SolveResult:
    """Exact optimum via cutting planes on the dual (needs alpha = 1)."""
    if view.alpha != 1:
        raise ParameterError("exact path needs an exact (alpha = 1) oracle")
    inst = view.instance
    pairs: list[tuple[int, ActionSet]] = [(t, view.prior_best) for t in range(inst.num_states)]
    seen = set(pairs)
    pivots = 0
    rounds = 0
    while True:
        if rounds >= cut_cap:
            raise IterationCap(f"cutting-plane loop exceeded {cut_cap} rounds")
        rounds += 1
        res = _restricted_dual(view, pairs)
        pivots += res.pivots
        if res.status != lp.OPTIMAL:
            raise CertificateError(f"restricted dual is bounded and feasible, yet ended {res.status}")
        point = DualPoint(tuple(res.x[: inst.num_states]), res.x[inst.num_states])
        rows, _ = separation(view, point)
        new = [rc for rc in rows if rc not in seen]
        if not new:
            break
        for rc in new:
            seen.add(rc)
            pairs.append(rc)
    scheme, value, p2 = _restricted_primal(view, pairs)
    return SolveResult(
        scheme=scheme,
        sender_value=value,
        method="cce-cutting-plane",
        catalog_size=len(pairs),
        lp_stats={"cut_rounds": rounds, "columns": len(pairs), "pivots": pivots + p2},
    )


def _fraction_sqrt_up(value: Fraction, bits: int = CENTER_DENOM_BITS) -> Fraction:
    """Rational upper bound on sqrt(value) with about `bits` bits of slack."""
    if value <= 0:
        raise ValueError("sqrt of nonpositive value")
    shift = 1 << bits
    scaled = value.numerator * shift * shift // value.denominator
    root = isqrt(scaled)
    if root * root < scaled:
        root += 1
    return Fraction(root, shift)


def _round_fraction(v: Fraction, bits: int = CENTER_DENOM_BITS) -> Fraction:
    shift = 1 << bits
    return Fraction(v.numerator * shift // v.denominator, shift)


@dataclass
class _EllipsoidRun:
    feasible_point: DualPoint | None
    proposals: set
    iterations: int


def _ellipsoid_run(view: CCEInstanceView, v: Fraction, iter_cap: int) -> _EllipsoidRun:
    """Search {dual rows, y >= 0, objective <= v} inside the parameter box.

    Returns the first center passing every test (approximately feasible),
    or exhausts the volume budget (infeasible).  All cuts are exact; only
    the shape matrix and centers are rounded.
    """
    inst = view.instance
    D = inst.num_states
    N = D + 1
    mu = inst.prior

    big_r, _ = _action_value_bounds(inst.receiver, D, inst.num_elements)
    x0 = view.v_max * max(mu)
    Y = (view.v_max + D * x0) / max(view.C, view.v_min)
    box_hi = [mu[t] * (view.v_max + Y * big_r) for t in range(D)] + [Y]
    box_hi = [max(h, ONE) for h in box_hi]

    center = [h / 2 for h in box_hi]
    radius_sq = sum((h / 2) ** 2 for h in box_hi)
    P = [[radius_sq if i == j else ZERO for j in range(N)] for i in range(N)]

    eps_prime = view.epsilon * view.v_min
    threshold = (eps_prime / (4 * N * (1 + view.v_max))) ** N
    threshold_sq = threshold * threshold

    proposals: set = set()
    sense_max = inst.sense is Sense.MAX

    def find_cut(z: list[Fraction]):
        """A row a.z' <= b violated at z, as (a, reason), or None."""
        x, y = z[:D], z[D]
        if y < 0:
            a = [ZERO] * N
            a[D] = -ONE  # -y <= 0
            return a
        for j in range(N):
            if z[j] > box_hi[j]:
                a = [ZERO] * N
                a[j] = ONE
                return a
            if z[j] < 0 and j < D:
                a = [ZERO] * N
                a[j] = -ONE
                return a
        objective = sum(x, ZERO) - view.C * y
        if sense_max:
            if objective > v:
                return [ONE] * D + [-view.C]
        else:
            if objective < v:
                return [-ONE] * D + [view.C]
        rows, prop = separation(view, DualPoint(tuple(x), y))
        proposals.update(prop)
        if rows:
            t, S = rows[0]
            a = [ZERO] * N
            # violated: x_t >= mu(s + y r) fails (max) / <= fails (min)
            coeff = mu[t] * inst.receiver.value(t, S)
            if sense_max:
                a[t] = -ONE
                a[D] = coeff
            else:
                a[t] = ONE
                a[D] = -coeff
            return a
        return None

    iterations = 0
    while True:
        if iterations >= iter_cap:
            raise IterationCap(f"ellipsoid exceeded {iter_cap} iterations at v={v}")
        iterations += 1
        # Round the center itself so every cut passes exactly through the
        # point it was validated at; the matrix inflation absorbs the shift.
        center = [_round_fraction(c) for c in center]
        cut = find_cut(center)
        if cut is None:
            return _EllipsoidRun(DualPoint(tuple(center[:D]), center[D]), proposals, iterations)

        # det(P) below threshold^2 certifies the remaining volume is gone.
        # det only shrinks, so an every-8th-iteration check is safe.
        if iterations % 8 == 0 and _det(P) <= threshold_sq:
            return _EllipsoidRun(None, proposals, iterations)

        pa = [sum((P[i][j] * cut[j] for j in range(N)), ZERO) for i in range(N)]
        apa = sum((cut[i] * pa[i] for i in range(N)), ZERO)
        if apa <= 0:
            return _EllipsoidRun(None, proposals, iterations)
        s = _fraction_sqrt_up(apa)
        step = Fraction(1, N + 1)
        center = [c - step * (p / s) for c, p in zip(center, pa)]
        scale = Fraction(N * N, N * N - 1) * (1 + MATRIX_INFLATION)
        twostep = Fraction(2, N + 1)
        P = [
            [
                _round_fraction(scale * (P[i][j] - twostep * pa[i] * pa[j] / apa))
                for j in range(N)
            ]
            for i in range(N)
        ]


def _det(m) -> Fraction:
    size = len(m)
    a = [row[:] for row in m]
    det = ONE
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / inv
            if f != 0:
                a[r] = [u - f * w for u, w in zip(a[r], a[col])]
    return det


def solve_cce_approx(view: CCEInstanceView, iter_cap: int | None = None) -> SolveResult:
    """Binary search + ellipsoid; value at least (alpha - epsilon) * optimum."""
    inst = view.instance
    if inst.sense is not Sense.MAX:
        raise UnsupportedSense("the binary-search path handles the maximize sense only")
    eps_prime = view.epsilon * view.v_min
    if eps_prime <= 0:
        raise ParameterError("epsilon * v_min must be positive")
    total_rounds = _ceil_log2(view.v_max / eps_prime) + 1
    if iter_cap is None:
        N = inst.num_states + 1
        iter_cap = 400 * N * N * (total_rounds + 64)

    v_l, v_u = ZERO, view.v_max
    v = (v_l + v_u) / 2
    columns: set = {(t, view.prior_best) for t in range(inst.num_states)}
    decisive: set = set()
    iters_total = 0
    for _ in range(total_rounds):
        run = _ellipsoid_run(view, v, iter_cap)
        iters_total += run.iterations
        columns.update(run.proposals)
        if run.feasible_point is not None:
            v_u = v
        else:
            v_l = v
            decisive = set(run.proposals)
        v = (v_l + v_u) / 2

    if v_l == 0:
        scheme, value = uninformative_scheme(inst)
        return SolveResult(
            scheme=scheme,
            sender_value=value,
            method="cce-ellipsoid",
            catalog_size=0,
            lp_stats={
                "rounds": total_rounds,
                "ellipsoid_iters": iters_total,
                "columns": 0,
            },
        )

    primal_cols = decisive | columns
    scheme, value, pivots = _restricted_primal(view, primal_cols)
    return SolveResult(
        scheme=scheme,
        sender_value=value,
        method="cce-ellipsoid",
        catalog_size=len(primal_cols),
        lp_stats={
            "rounds": total_rounds,
            "ellipsoid_iters": iters_total,
            "columns": len(primal_cols),
            "pivots": pivots,
        },
    )


def _ceil_log2(value: Fraction) -> int:
    if value <= 0:
        raise ParameterError("log of nonpositive value")
    k = 0
    power = ONE
    while power < value:
        power *= 2
        k += 1
    return k


def cce_row_value(instance: Instance, scheme: SignalingScheme) -> Fraction:
    """Receiver's expected value when always following the scheme."""
    total = ZERO
    for (t, S), p in scheme.phi.items():
        total += instance.prior[t] * p * instance.receiver.value(t, S)
    return total
