"""Coarse-correlated-equilibrium persuasion: exact and approximate solvers.

Under the relaxed obedience notion, the receiver only compares following the
scheme against the single best action under the prior, worth C in
expectation.  The optimal scheme is then ``persuasion.scheme_lp`` with one
obedience row: maximize expected sender value subject to per-state signal
distributions and one aggregate row requiring the receiver's expected
value to beat C.  Both solver paths return through ``persuasion.certify``
under the relaxed notion, so a scheme that recommends an infeasible
action, misreports its value or falls short of C is never emitted, even
when a custom oracle proposed it.

Two solver paths:

* ``solve_cce_exact`` — column generation on that LP with an exact
  best-response oracle.  Each round solves the LP over the columns found so
  far and prices every state's columns at once with the round's certified
  duals (one oracle sweep); it stops, with the exact optimum, when no
  column prices out.  Seen from the dual this is a cutting-plane loop.
* ``solve_cce_approx`` — binary search over the dual value combined with
  the ellipsoid method driven by an alpha-approximate oracle over the
  bracket ``compute_v_bounds`` gives; returns a scheme worth at least
  (alpha - epsilon) times the optimum.  This is the path that stays
  polynomial when the sender's utility can only be approximately
  maximized (e.g. submodular, via the half-greedy oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable

from . import matroid
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
    Posterior,
    Sense,
    UtilityKind,
)
from .persuasion import (
    RELAXED,
    SolveResult,
    best_action,
    best_deviation,
    certify,
    enumerate_actions,
    scheme_lp,
    uninformative_scheme,
)
from .rationals import ONE, ZERO, as_fraction

ROUND_CAP = 10_000  # column-generation rounds in solve_cce_exact
DEFAULT_EPSILON = Fraction(1, 10)
CENTER_DENOM_BITS = 128  # ellipsoid centers/matrix rounded to this denominator size
MATRIX_INFLATION = Fraction(1, 1 << 10)  # keeps rounded ellipsoids containing


@dataclass(frozen=True)
class ApproxOracle:
    """Returns, for (state, y>=0), an action within factor alpha of
    max/min over independent sets of s_state(S) + y * r_state(S); the
    receiver part y*r must never be approximated."""

    kind: str  # "exact" | "half-greedy" | "custom"
    alpha: Fraction
    fn: Callable[[int, Fraction], ActionSet]


@dataclass(frozen=True)
class CCEInstanceView:
    instance: Instance
    oracle: ApproxOracle
    C: Fraction
    prior_best: ActionSet
    epsilon: Fraction
    audit: bool = False
    audit_pool: tuple[ActionSet, ...] = field(default=())


def prior_best_value(instance: Instance) -> tuple[Fraction, ActionSet]:
    """Receiver's best expected value (and action) under the prior alone."""
    return best_deviation(instance, Posterior(xi=instance.prior))


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


def exact_oracle(instance: Instance, max_actions: int | None = None) -> ApproxOracle:
    """Exact oracle: ``persuasion.best_action`` at state t's point belief
    with a = y and b = 1.  Linear utilities take one greedy or Dijkstra
    call; otherwise every feasible action is enumerated here, once, and
    each call scans them, ties going to the lexicographically least."""
    pool = None
    if UtilityKind.TABULAR in (instance.sender.kind, instance.receiver.kind):
        pool = enumerate_actions(instance.constraint, instance.num_elements, max_actions)
    D = instance.num_states
    points = [Posterior(tuple(ONE if s == t else ZERO for s in range(D))) for t in range(D)]

    def fn(state: int, y: Fraction) -> ActionSet:
        return best_action(instance, points[state], y, ONE, pool)

    return ApproxOracle("exact", ONE, fn)


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
    """Bundle an instance with its oracle, the receiver's prior-best action
    and value, and the search tolerance."""
    if isinstance(oracle, str):
        if oracle == "exact":
            oracle = exact_oracle(instance, max_actions)
        elif oracle == "half-greedy":
            oracle = half_greedy_submodular_oracle(instance)
        else:
            raise ParameterError(f"unknown oracle name {oracle!r}")
    epsilon = as_fraction(epsilon)
    if not 0 < epsilon < oracle.alpha:
        raise ParameterError("epsilon must lie strictly between 0 and the oracle's alpha")
    C, S_C = prior_best_value(instance)
    audit_pool: tuple[ActionSet, ...] = ()
    if audit:
        audit_pool = tuple(enumerate_actions(instance.constraint, instance.num_elements, max_actions))
    return CCEInstanceView(
        instance=instance,
        oracle=oracle,
        C=C,
        prior_best=S_C,
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
            bar = view.oracle.alpha * inst.sender.value(state, S) + y * inst.receiver.value(state, S)
            bad = achieved < bar
        else:
            bad = achieved > other
        if bad:
            raise OracleContractViolation(
                f"oracle returned {got} at state {state}, y={y}: "
                f"value {achieved} misses the alpha bound against {S}"
            )


def separation(view: CCEInstanceView, x, y: Fraction):
    """One oracle sweep: the dual rows violated at the point (x, y), if any.

    Row (t, S) of the dual reads ``x_t >= mu_t * (s_t(S) + y * r_t(S))``
    (``<=`` for minimize); for the primal it is the reduced-cost test of
    column (t, S).  Returns (rows, proposals): ``rows`` lists violated
    (state, action) pairs — empty means (x/alpha, y/alpha) is feasible for
    the full dual — and ``proposals`` every oracle-returned pair (the
    ellipsoid keeps these as primal columns whether or not they cut).
    """
    inst = view.instance
    mu = inst.prior
    rows: list[tuple[int, ActionSet]] = []
    proposals: list[tuple[int, ActionSet]] = []
    for t in range(inst.num_states):
        S = view.oracle.fn(t, y)
        if view.audit:
            _audit_oracle(view, t, y, S)
        proposals.append((t, S))
        lhs = mu[t] * (inst.sender.value(t, S) + y * inst.receiver.value(t, S))
        violated = x[t] < lhs if inst.sense is Sense.MAX else x[t] > lhs
        if violated:
            rows.append((t, S))
    return rows, proposals


def solve_cce_exact(view: CCEInstanceView) -> SolveResult:
    """Exact optimum by column generation (needs alpha = 1).

    Round k solves ``scheme_lp`` over the columns found so far, with the
    one aggregate obedience row after the D mass rows, and reads its
    certified duals: x_t = duals[t] prices state t's mass row and
    y = -duals[D] >= 0 the obedience row.  One ``separation`` sweep then
    returns, per state, a column maximizing (minimizing) the reduced cost,
    and the violated ones join the LP.  With none violated, (x, y) is
    feasible for the full dual with the restricted LP's value, so that LP is
    optimal for the full one and is the answer.  Every collected column
    already prices out at certified duals, so a violated one means the
    certificate or the oracle is wrong.
    """
    if view.oracle.alpha != 1:
        raise ParameterError("exact path needs an exact (alpha = 1) oracle")
    inst = view.instance
    D = inst.num_states
    columns = {(t, view.prior_best) for t in range(D)}
    pivots = 0
    rounds = 0
    while True:
        if rounds >= ROUND_CAP:
            raise IterationCap(f"column generation exceeded {ROUND_CAP} rounds")
        rounds += 1
        ordered = sorted(columns)
        obedience = [inst.prior[t] * inst.receiver.value(t, S) for t, S in ordered]
        scheme, res = scheme_lp(inst, ordered, [(obedience, view.C)])
        pivots += res.pivots
        rows, _ = separation(view, res.duals[:D], -res.duals[D])
        if not rows:
            break
        stale = columns.intersection(rows)
        if stale:
            raise CertificateError(f"columns {sorted(stale)} price out at the certified duals of an LP that holds them")
        columns.update(rows)
    certify(inst, scheme, res.value, RELAXED)
    return SolveResult(
        scheme=scheme,
        sender_value=res.value,
        method="cce-cutting-plane",
        catalog_size=len(columns),
        lp_stats={"cut_rounds": rounds, "columns": len(columns), "pivots": pivots},
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
    feasible: bool
    proposals: set
    iterations: int


def _ellipsoid_run(view: CCEInstanceView, v: Fraction, v_min: Fraction, v_max: Fraction) -> _EllipsoidRun:
    """Search {dual rows, y >= 0, objective <= v} inside the parameter box
    that the bracket (v_min, v_max) sizes.

    Returns the first center passing every test (approximately feasible),
    or exhausts the volume budget (infeasible).  All cuts are exact; only
    the shape matrix and centers are rounded.  More than 400 * N^2 *
    (binary-search rounds + 64) iterations raise ``IterationCap``.
    """
    inst = view.instance
    D = inst.num_states
    N = D + 1
    mu = inst.prior

    big_r, _ = _action_value_bounds(inst.receiver, D, inst.num_elements)
    x0 = v_max * max(mu)
    Y = (v_max + D * x0) / max(view.C, v_min)
    box_hi = [mu[t] * (v_max + Y * big_r) for t in range(D)] + [Y]
    box_hi = [max(h, ONE) for h in box_hi]

    center = [h / 2 for h in box_hi]
    radius_sq = sum((h / 2) ** 2 for h in box_hi)
    P = [[radius_sq if i == j else ZERO for j in range(N)] for i in range(N)]

    eps_prime = view.epsilon * v_min
    threshold = (eps_prime / (4 * N * (1 + v_max))) ** N
    threshold_sq = threshold * threshold
    iter_cap = 400 * N * N * (_ceil_log2(v_max / eps_prime) + 65)

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
        rows, prop = separation(view, x, y)
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
            return _EllipsoidRun(True, proposals, iterations)

        # det(P) below threshold^2 certifies the remaining volume is gone.
        # det only shrinks, so an every-8th-iteration check is safe.
        if iterations % 8 == 0 and _det(P) <= threshold_sq:
            return _EllipsoidRun(False, proposals, iterations)

        pa = [sum((P[i][j] * cut[j] for j in range(N)), ZERO) for i in range(N)]
        apa = sum((cut[i] * pa[i] for i in range(N)), ZERO)
        if apa <= 0:
            return _EllipsoidRun(False, proposals, iterations)
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


def solve_cce_approx(view: CCEInstanceView) -> SolveResult:
    """Binary search + ellipsoid; value at least (alpha - epsilon) * optimum."""
    inst = view.instance
    if inst.sense is not Sense.MAX:
        raise UnsupportedSense("the binary-search path handles the maximize sense only")
    try:
        v_min, v_max = compute_v_bounds(inst)
    except DegenerateBounds:
        # Optimum is zero; any positive bracket makes the search a no-op.
        v_min, v_max = Fraction(1, 2), ONE
    eps_prime = view.epsilon * v_min
    if eps_prime <= 0:
        raise ParameterError("epsilon * v_min must be positive")
    total_rounds = _ceil_log2(v_max / eps_prime) + 1

    v_l, v_u = ZERO, v_max
    v = (v_l + v_u) / 2
    columns: set = {(t, view.prior_best) for t in range(inst.num_states)}
    iters_total = 0
    for _ in range(total_rounds):
        run = _ellipsoid_run(view, v, v_min, v_max)
        iters_total += run.iterations
        columns.update(run.proposals)
        if run.feasible:
            v_u = v
        else:
            v_l = v
        v = (v_l + v_u) / 2

    stats = {"rounds": total_rounds, "ellipsoid_iters": iters_total}
    if v_l == 0:
        scheme, value = uninformative_scheme(inst)
        columns = set()  # the scheme comes from no LP
    else:
        ordered = sorted(columns)
        obedience = [inst.prior[t] * inst.receiver.value(t, S) for t, S in ordered]
        scheme, res = scheme_lp(inst, ordered, [(obedience, view.C)])
        value = res.value
        stats["pivots"] = res.pivots
    certify(inst, scheme, value, RELAXED)
    return SolveResult(
        scheme=scheme,
        sender_value=value,
        method="cce-ellipsoid",
        catalog_size=len(columns),
        lp_stats={**stats, "columns": len(columns)},
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
