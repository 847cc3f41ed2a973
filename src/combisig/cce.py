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

Both price columns with ``separation`` on a point of integers over one
denominator, comparing each row times a positive scale, so every verdict
is the rational one.  Tabular utilities are scanned over
``persuasion.feasible_actions``, enumerated once per instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import floor, gcd, isqrt
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
    Record,
    Sense,
    UtilityKind,
)
from .persuasion import (
    RELAXED,
    SolveResult,
    best_deviation,
    certify,
    feasible_actions,
    scheme_lp,
    uninformative_scheme,
)
from .rationals import ONE, ZERO, as_fraction, over_one_denominator

ROUND_CAP = 10_000  # column-generation rounds in solve_cce_exact
DEFAULT_EPSILON = Fraction(1, 10)
CENTER_DENOM_BITS = 128  # ellipsoid centers/matrix rounded to this denominator size
MATRIX_INFLATION = Fraction(1, 1 << 10)  # keeps rounded ellipsoids containing


class ApproxOracle(Record):
    """Returns, for (state, y>=0), an action within factor alpha of
    max/min over independent sets of s_state(S) + y * r_state(S); the
    receiver part y*r must never be approximated.  ``kind`` is "exact",
    "half-greedy" or "custom"."""

    __slots__ = ("kind", "alpha", "fn")

    def __init__(self, kind: str, alpha: Fraction, fn: Callable[[int, Fraction], ActionSet]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "fn", fn)


class CCEInstanceView(Record):
    """An instance with its oracle, the receiver's prior-best value C and
    action, the search tolerance and whether each oracle answer is audited."""

    __slots__ = ("instance", "oracle", "C", "prior_best", "epsilon", "audit")

    def __init__(
        self,
        instance: Instance,
        oracle: ApproxOracle,
        C: Fraction,
        prior_best: ActionSet,
        epsilon: Fraction,
        audit: bool = False,
    ):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "prior_best", prior_best)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "audit", audit)


def prior_best_value(instance: Instance) -> tuple[Fraction, ActionSet]:
    """Receiver's best expected value (and action) under the prior alone."""
    return best_deviation(instance, instance.masses[0])


def _action_value_bounds(util, n: int) -> tuple[Fraction, Fraction | None]:
    """(upper bound on any action's value, min positive value or None).

    Linear: any action's value is at most |E| times the largest singleton,
    and a positive action value is at least the smallest positive singleton.
    Tabular: scan the tables directly.  Both read the integer view.
    """
    rows, den = util.ints
    linear = util.kind is UtilityKind.LINEAR
    values = [v for row in rows for v in (row if linear else row.values())]
    positive = [v for v in values if v > 0]
    return Fraction(max(values) * (n if linear else 1), den), Fraction(min(positive), den) if positive else None


def compute_v_bounds(instance: Instance) -> tuple[Fraction, Fraction]:
    """Strict bracket (v_min, v_max) around any positive optimum.

    v_max strictly exceeds the best possible sender value (subadditivity of
    the sender utility over singletons).  v_min is below every positive
    value a vertex of the feasibility polytope can take: the product of the
    smallest positive prior, the smallest positive vertex coordinate, and
    the smallest positive singleton sender value.  Vertex coordinates are
    ratios whose numerator lies on the lattice generated by the prior
    masses (after clearing receiver denominators) and whose denominator is
    at most |E| times the largest receiver singleton, all read off the
    integer views.
    """
    n = instance.num_elements
    s_bound, s_min = _action_value_bounds(instance.sender, n)
    if s_min is None:
        raise DegenerateBounds("all sender utility values are zero; optimum is zero")
    v_max = s_bound + 1

    r_bound, _ = _action_value_bounds(instance.receiver, n)
    if r_bound == 0:
        phi_min = ONE  # obedience row is vacuous; vertices are 0-1 vectors
    else:
        scale = instance.receiver.ints[1]
        masses, mass_den = instance.masses
        g = Fraction(gcd(*masses), mass_den)
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


def exact_oracle(instance: Instance) -> ApproxOracle:
    """Exact oracle: an action maximizing (min sense: minimizing)
    s_t(S) + y * r_t(S), in integers on the integer views (denominators D_r
    and D_s) as ``a * r_t(S) + b * s_t(S)``, a = y.numerator * D_s and
    b = y.denominator * D_r: its times y.denominator * D_r * D_s > 0.
    Tabular utilities: each call scans ``feasible_actions`` on that key, ties
    going to the lexicographically least, at y = 0 too.  Linear utilities:
    one greedy or Dijkstra call on the element weights a * r_e + b * s_e,
    which keeps greedy's order and Dijkstra's comparisons, so the answer,
    with a matroid's independence oracle built once, here, for every call."""
    (receiver, r_den), (sender, s_den) = instance.receiver.ints, instance.sender.ints
    r_value, s_value = instance.receiver.int_value, instance.sender.int_value
    sign = -1 if instance.sense is Sense.MAX else 1
    tabular = UtilityKind.TABULAR in (instance.sender.kind, instance.receiver.kind)
    actions = feasible_actions(instance) if tabular else None
    independence = None
    if not tabular and isinstance(instance.constraint, MATROID_KINDS):
        independence = matroid.oracle_for(instance.constraint, instance.num_elements)

    def fn(state: int, y: Fraction) -> ActionSet:
        a, b = y.numerator * s_den, y.denominator * r_den
        if tabular:
            return min(actions, key=lambda S: (sign * (a * r_value(state, S) + b * s_value(state, S)), S))
        weights = [a * r + b * s for r, s in zip(receiver[state], sender[state])]
        return matroid.max_weight_action(instance.constraint, weights, instance.sense, independence)

    return ApproxOracle("exact", ONE, fn)


def half_greedy_submodular_oracle(instance: Instance) -> ApproxOracle:
    """Marginal-gain greedy: 1/2-approximation for monotone submodular
    sender value plus the linear receiver part over a matroid.

    In integers, on the integer views (denominators D_r and D_s): the key
    of element e at y is G_e * y.denominator * D_r + y.numerator * D_s *
    R_e, G_e the sender gain times D_s and R_e the view's r_e, which is the
    gain plus y * r_e times the positive y.denominator * D_r * D_s, so the
    argmax and its first of ties (least e) are the ``Fraction`` key's."""
    if instance.sense is not Sense.MAX:
        raise UnsupportedSense("half-greedy oracle handles the maximize sense only")
    if not isinstance(instance.constraint, MATROID_KINDS):
        raise UnsupportedCombination("half-greedy oracle needs a matroid constraint")
    if instance.receiver.kind is not UtilityKind.LINEAR:
        raise NonLinearReceiver("half-greedy oracle needs a linear receiver utility")
    n = instance.num_elements
    oracle = matroid.oracle_for(instance.constraint, n)
    (receiver, r_den), s_den = instance.receiver.ints, instance.sender.ints[1]
    value = instance.sender.int_value

    @cache
    def gains(state: int, chosen: ActionSet) -> tuple[tuple[int, int], ...]:
        """(e, D_s times the sender gain of adding e) for each e that keeps
        ``chosen`` independent, ascending: they do not depend on y."""
        base = value(state, chosen)
        out = []
        for e in range(n):
            if e in chosen:
                continue
            cand = tuple(sorted((*chosen, e)))
            if oracle.is_independent(cand):
                out.append((e, value(state, cand) - base))
        return tuple(out)

    def fn(state: int, y: Fraction) -> ActionSet:
        a, b, r = y.numerator * s_den, y.denominator * r_den, receiver[state]
        chosen: ActionSet = ()
        while options := gains(state, chosen):
            best = max(options, key=lambda eg: eg[1] * b + a * r[eg[0]])  # first of ties: least e
            chosen = tuple(sorted((*chosen, best[0])))
        return chosen

    return ApproxOracle("half-greedy", Fraction(1, 2), fn)


def make_view(
    instance: Instance,
    oracle: ApproxOracle | str = "exact",
    epsilon=DEFAULT_EPSILON,
    audit: bool = False,
    max_actions: int | None = None,
) -> CCEInstanceView:
    """Bundle an instance with its oracle, the receiver's prior-best action
    and value, and the search tolerance.  Past ``max_actions`` it refuses the
    audit, and the exact oracle on tabular utilities: both scan every action."""
    if audit or (oracle == "exact" and UtilityKind.TABULAR in (instance.sender.kind, instance.receiver.kind)):
        feasible_actions(instance, max_actions)
    if isinstance(oracle, str):
        if oracle == "exact":
            oracle = exact_oracle(instance)
        elif oracle == "half-greedy":
            oracle = half_greedy_submodular_oracle(instance)
        else:
            raise ParameterError(f"unknown oracle name {oracle!r}")
    epsilon = as_fraction(epsilon)
    if not 0 < epsilon < oracle.alpha:
        raise ParameterError("epsilon must lie strictly between 0 and the oracle's alpha")
    C, S_C = prior_best_value(instance)
    return CCEInstanceView(
        instance=instance,
        oracle=oracle,
        C=C,
        prior_best=S_C,
        epsilon=epsilon,
        audit=audit,
    )


def _audit_oracle(view: CCEInstanceView, state: int, y: Fraction, got: ActionSet) -> None:
    """Contract: s(got) + y*r(got) >= alpha*s(S') + y*r(S') for every feasible
    S' (the receiver part is never discounted).  Minimization needs alpha=1 and
    checks plain optimality."""
    inst = view.instance
    achieved = inst.sender.value(state, got) + y * inst.receiver.value(state, got)
    for S in feasible_actions(inst):
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


def separation(view: CCEInstanceView, X, Y: int, den: int, memo: dict | None = None):
    """One oracle sweep: the dual rows violated at the point (x, y), if any.

    The point is integers over one denominator: x_t = X[t] / den and
    y = Y / den, den > 0.  Row (t, S) of the dual reads
    ``x_t >= mu_t * (s_t(S) + y * r_t(S))`` (``<=`` for minimize); for the
    primal it is the reduced-cost test of column (t, S).  On the integer
    views (masses M_t / m, utilities over D_s and D_r), mu_t * s_t(S) = a / K
    and mu_t * r_t(S) = b / K with a = M_t * s_int * D_r, b = M_t * r_int *
    D_s and K = m * D_s * D_r (memoized in ``memo``, one dict per solve), so
    the test is ``X[t] * K >= a * den + b * Y``: both sides are the row's
    times the positive K * den, so it is exact, and a point on the row is
    not violated.  Only y becomes a ``Fraction``, once, for the oracle.
    Returns (rows, proposals): ``rows`` lists violated (state, action)
    pairs — empty means (x/alpha, y/alpha) is feasible for the full dual —
    and ``proposals`` every oracle-returned pair (the ellipsoid keeps these
    as primal columns whether or not they cut).
    """
    inst = view.instance
    (masses, mass_den), (_, s_den), (_, r_den) = inst.masses, inst.sender.ints, inst.receiver.ints
    memo = {} if memo is None else memo
    y = Fraction(Y, den)
    sense_max = inst.sense is Sense.MAX
    rows: list[tuple[int, ActionSet]] = []
    proposals: list[tuple[int, ActionSet]] = []
    for t in range(inst.num_states):
        S = view.oracle.fn(t, y)
        if view.audit:
            _audit_oracle(view, t, y, S)
        proposals.append((t, S))
        if (t, S) not in memo:
            s, r = inst.sender.int_value(t, S), inst.receiver.int_value(t, S)
            memo[t, S] = masses[t] * s * r_den, masses[t] * r * s_den, mass_den * s_den * r_den
        a, b, K = memo[t, S]
        lhs, rhs = X[t] * K, a * den + b * Y
        if lhs < rhs if sense_max else lhs > rhs:
            rows.append((t, S))
    return rows, proposals


def _obedience_row(view: CCEInstanceView, columns: list) -> tuple[list[int], Fraction, int]:
    """``scheme_lp``'s row sum mu_t * r_t(S) >= C (min sense: <=), from the integer view."""
    (masses, mass_den), receiver = view.instance.masses, view.instance.receiver
    return [masses[t] * receiver.int_value(t, S) for t, S in columns], view.C, mass_den * receiver.ints[1]


def solve_cce_exact(view: CCEInstanceView) -> SolveResult:
    """Exact optimum by column generation (needs alpha = 1).

    Round k solves ``scheme_lp`` over the columns found so far, with the
    one aggregate obedience row after the D mass rows, and reads its
    certified duals: x_t = duals[t] prices state t's mass row and
    y = -duals[D] >= 0 the obedience row; ``separation`` gets them as
    integers over their common denominator.  One ``separation`` sweep then
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
    memo: dict = {}
    pivots = 0
    rounds = 0
    while True:
        if rounds >= ROUND_CAP:
            raise IterationCap(f"column generation exceeded {ROUND_CAP} rounds")
        rounds += 1
        ordered = sorted(columns)
        scheme, res = scheme_lp(inst, ordered, [_obedience_row(view, ordered)])
        pivots += res.pivots
        X, den = over_one_denominator([*res.duals[:D], -res.duals[D]])
        rows, _ = separation(view, X[:D], X[D], den, memo)
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


def _ellipsoid_run(
    view: CCEInstanceView, v: Fraction, v_min: Fraction, v_max: Fraction, memo: dict | None = None
) -> tuple[bool, set, int]:
    """Search {dual rows, y >= 0, objective <= v} inside the parameter box
    that the bracket (v_min, v_max) sizes; returns (feasible, the oracle's
    proposals, iterations).

    Feasible means a center passed every test; infeasible, the volume budget
    ran out.  All cuts are exact; only the centers and shape matrix are
    rounded down to multiples of 2^-B, B = ``CENTER_DENOM_BITS``, in
    fixed-point integers: center C / 2^B, matrix Q / den, and each cut
    a sparse integer row A = L * a, L the lcm of a's denominators.  Each
    rounded value is one floor division of integers, equal to the rounded
    rational, so the iterates are those of the rational computation.  The
    center's tests run on C itself, in the rational order: y < 0; the box
    as C_j > floor(h_j * 2^B), which for an integer C_j is C_j / 2^B > h_j;
    the objective and ``separation``'s rows times positive denominators;
    so each verdict is the rational one.  ``memo`` goes to ``separation``.
    More than 400 * N^2 * (binary-search rounds + 64) iterations raise
    ``IterationCap``.
    """
    inst = view.instance
    D = inst.num_states
    N = D + 1
    mu = inst.prior
    memo = {} if memo is None else memo

    big_r, _ = _action_value_bounds(inst.receiver, inst.num_elements)
    x0 = v_max * max(mu)
    Y = (v_max + D * x0) / max(view.C, v_min)
    box_hi = [mu[t] * (v_max + Y * big_r) for t in range(D)] + [Y]
    box_hi = [max(h, ONE) for h in box_hi]

    shift = 1 << CENTER_DENOM_BITS
    center = [h.numerator * shift // (2 * h.denominator) for h in box_hi]
    box = [h.numerator * shift // h.denominator for h in box_hi]
    radius_sq = sum((h / 2) ** 2 for h in box_hi)
    Q = [[radius_sq.numerator if i == j else 0 for j in range(N)] for i in range(N)]
    den = radius_sq.denominator

    eps_prime = view.epsilon * v_min
    threshold_sq = (eps_prime / (4 * N * (1 + v_max))) ** (2 * N)
    iter_cap = 400 * N * N * (_ceil_log2(v_max / eps_prime) + 65)
    # P' = scale * (P - 2/(N+1) * Pa a'P / a'Pa); 1/(N+1) is folded into inflate_den
    scale = Fraction(N * N, N * N - 1) * (1 + MATRIX_INFLATION)
    inflate_num, inflate_den = scale.numerator * shift, scale.denominator * (N + 1)

    proposals: set = set()
    sense_max = inst.sense is Sense.MAX
    sign = 1 if sense_max else -1
    c_num, c_den = view.C.numerator, view.C.denominator
    # objective = sum(x) - C y > v (max) reads (c_den sum(X) - c_num Y) v.den > v.num c_den 2^B
    obj_bound = v.numerator * c_den * shift
    obj_cut = ([(t, sign * c_den) for t in range(D)] + ([(D, -sign * c_num)] if c_num else []), c_den)

    def find_cut(z: list[int]):
        """A row a.z' <= b violated at z / 2^B, as (A, L), or None."""
        if z[D] < 0:
            return [(D, -1)], 1  # -y <= 0
        for j in range(N):
            if z[j] > box[j]:
                return [(j, 1)], 1
            if z[j] < 0 and j < D:
                return [(j, -1)], 1
        objective = (c_den * sum(z[:D]) - c_num * z[D]) * v.denominator
        if objective > obj_bound if sense_max else objective < obj_bound:
            return obj_cut
        rows, prop = separation(view, z[:D], z[D], shift, memo)
        proposals.update(prop)
        if not rows:
            return None
        # violated: x_t >= mu(s + y r) fails (max) / <= fails (min)
        t = rows[0][0]
        _, b, K = memo[rows[0]]
        g = gcd(b, K)
        return [(t, -sign * K // g)] + ([(D, sign * b // g)] if b else []), K // g

    iterations = 0
    while True:
        if iterations >= iter_cap:
            raise IterationCap(f"ellipsoid exceeded {iter_cap} iterations at v={v}")
        iterations += 1
        # The center is rounded itself, so every cut passes exactly through
        # the point it was validated at; the matrix inflation absorbs the shift.
        cut = find_cut(center)
        if cut is None:
            return True, proposals, iterations

        # det(P) = det(Q) / den^N below threshold^2 certifies the remaining
        # volume is gone.  det only shrinks, so an every-8th check is safe.
        if iterations % 8 == 0 and (
            _bareiss_det(Q) * threshold_sq.denominator <= threshold_sq.numerator * den**N
        ):
            return False, proposals, iterations

        A, L = cut
        QA = [sum(row[j] * a for j, a in A) for row in Q]  # P a = QA / (den L)
        M = sum(QA[j] * a for j, a in A)  # a P a = M / (den L^2)
        if M <= 0:
            return False, proposals, iterations
        scaled = M * shift * shift // (den * L * L)
        s = isqrt(scaled)
        if s * s < scaled:
            s += 1  # sqrt(a P a) rounded up is s / 2^B
        # c' = c - P a / ((N + 1) sqrt(a P a)), rounded down
        step = (N + 1) * den * L * s
        center = [c + (-q * shift * shift) // step for c, q in zip(center, QA)]
        # (Q' / 2^B) = scale * (Q / den - 2 QA QA' / ((N + 1) den M)), rounded down
        m1 = (N + 1) * M
        div = inflate_den * den * M
        Q = [
            [inflate_num * (Q[i][j] * m1 - 2 * QA[i] * QA[j]) // div for j in range(N)]
            for i in range(N)
        ]
        den = shift


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free
    elimination: every division is exact, rows swap past zero pivots."""
    a = [row[:] for row in m]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return sign * a[-1][-1]


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
    memo: dict = {}
    iters_total = 0
    for _ in range(total_rounds):
        feasible, proposals, iterations = _ellipsoid_run(view, v, v_min, v_max, memo)
        iters_total += iterations
        columns.update(proposals)
        if feasible:
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
        scheme, res = scheme_lp(inst, ordered, [_obedience_row(view, ordered)])
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
    return (-(-value.numerator // value.denominator) - 1).bit_length()  # least k with 2^k >= ceil(value)
