"""Instance generators built on hardness reductions, used as stress tests.

LINEQ-MA is the promise problem of telling whether some 0/1 vector satisfies
at least a (1 - zeta) fraction of a rational linear system ``A x = c`` or
every rational vector satisfies less than a delta fraction.  Each generator
compiles such a system into a persuasion instance whose optimal sender value
separates the two cases:

* ``gen_uniform_from_lineq`` — pick-at-most-n_eq over 3 elements per
  equation; the sender scores on "agree" elements.
* ``gen_graphic_from_lineq`` — one K4 gadget per equation; spanning trees
  encode the same three-way choice.
* ``gen_path_from_lineq`` — a layered digraph with three parallel channels
  per equation, in the minimization sense.
* ``gen_partition_from_public`` — bridges public persuasion with binary
  per-receiver actions to a two-elements-per-block partition instance.

``completeness_scheme`` materializes the two-signal scheme that witnesses
the satisfiable case, mapped down to a direct (recommendation) scheme.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingSolution, ParameterError, PriorDegenerate
from .model import (
    ActionSet,
    Graphic,
    Instance,
    PathGraph,
    Partition,
    Posterior,
    Record,
    Sense,
    SignalingScheme,
    Uniform,
    UtilitySpec,
)
from .persuasion import tie_broken_response
from .rationals import ONE, ZERO, as_fraction


class LineqMaSpec(Record):
    """A rational linear system with the promise parameters attached.

    ``zeta``/``delta`` are metadata describing the promise gap; generators
    never enforce the promise.  ``known_solution`` is an optional 0/1 vector
    witnessing the satisfiable case (used by ``completeness_scheme``).
    """

    __slots__ = ("A", "c", "zeta", "delta", "known_solution")

    def __init__(
        self,
        A: tuple[tuple[Fraction, ...], ...],
        c: tuple[Fraction, ...],
        zeta: Fraction,
        delta: Fraction,
        known_solution: tuple[int, ...] | None = None,
    ):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "known_solution", known_solution)
        if not self.A or not self.A[0]:
            raise ParameterError("need at least one equation and one variable")
        width = len(self.A[0])
        if any(len(row) != width for row in self.A):
            raise ParameterError("ragged coefficient matrix")
        if len(self.c) != len(self.A):
            raise ParameterError("one right-hand side per equation required")
        if not 0 <= self.delta <= 1 - self.zeta <= 1:
            raise ParameterError("need 0 <= delta <= 1 - zeta <= 1")
        if self.known_solution is not None:
            if len(self.known_solution) != width:
                raise ParameterError("known solution has the wrong length")
            if any(v not in (0, 1) for v in self.known_solution):
                raise ParameterError("known solution must be a 0/1 vector")

    @property
    def n_eq(self) -> int:
        return len(self.A)

    @property
    def n_var(self) -> int:
        return len(self.A[0])

    @classmethod
    def make(cls, A, c, zeta, delta, known_solution=None) -> "LineqMaSpec":
        return cls(
            A=tuple(tuple(as_fraction(v) for v in row) for row in A),
            c=tuple(as_fraction(v) for v in c),
            zeta=as_fraction(zeta),
            delta=as_fraction(delta),
            known_solution=None if known_solution is None else tuple(known_solution),
        )


def normalization(spec: LineqMaSpec) -> tuple[Fraction, tuple, tuple]:
    """(tau, A/tau, c/tau^2): scales every generated weight into [0, 2]."""
    tau = 2 * max(
        max(abs(v) for row in spec.A for v in row),
        max((abs(v) for v in spec.c), default=ZERO),
        Fraction(spec.n_var**2),
    )
    a_bar = tuple(tuple(v / tau for v in row) for row in spec.A)
    c_bar = tuple(v / tau**2 for v in spec.c)
    return tau, a_bar, c_bar


def _lineq_prior(spec: LineqMaSpec) -> tuple[tuple[str, ...], tuple[Fraction, ...]]:
    n = spec.n_var
    if n < 2:
        raise PriorDegenerate("need at least two variables for a positive prior")
    names = ("bg",) + tuple(f"x{j}" for j in range(1, n + 1))
    prior = (Fraction(n - 1, n),) + (Fraction(1, n * n),) * n
    return names, prior


def _channel_weights(spec: LineqMaSpec):
    """Per state, per equation: the (keep, plus, minus) weight triple.

    State 0 is the background state; state theta >= 1 tracks variable theta.
    "keep" always weighs 1; "plus"/"minus" move by the equation's residual.
    """
    _, a_bar, c_bar = normalization(spec)
    rows = []
    background = []
    for t in range(spec.n_eq):
        background.append((ONE, ONE + c_bar[t], ONE - c_bar[t]))
    rows.append(background)
    for theta in range(1, spec.n_var + 1):
        row = []
        for t in range(spec.n_eq):
            a = a_bar[t][theta - 1]
            row.append((ONE, ONE - a + c_bar[t], ONE + a - c_bar[t]))
        rows.append(row)
    return rows


def gen_uniform_from_lineq(spec: LineqMaSpec) -> Instance:
    """Pick-at-most-n_eq instance whose best responses encode the system."""
    state_names, prior = _lineq_prior(spec)
    triples = _channel_weights(spec)
    n_eq = spec.n_eq
    element_names = tuple(
        f"eq{t}:a{j}" for t in range(1, n_eq + 1) for j in range(3)
    )
    receiver = [
        [w for triple in row for w in triple] for row in triples
    ]
    sender_row = [
        Fraction(1, n_eq) if j == 0 else ZERO
        for _ in range(n_eq)
        for j in range(3)
    ]
    sender = [sender_row] * len(state_names)
    return Instance(
        state_names=state_names,
        prior=prior,
        element_names=element_names,
        sender=UtilitySpec.from_linear(sender),
        receiver=UtilitySpec.from_linear(receiver),
        constraint=Uniform(k=n_eq),
    )


# Edge order inside each K4 gadget, vertices 0..3.
_K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def gadget_edge_scale(spec: LineqMaSpec) -> Fraction:
    """The weight of the forced edge in each K4 gadget.

    It strictly exceeds every other edge weight (each is at most
    1 + max|A|/tau + max|c|/tau^2 <= 2 + max|c_bar| + max|A_bar|), so every
    maximum-weight spanning tree of a gadget contains the forced edge: any
    tree swapping it for another edge loses at least L - (that bound) > 0.
    """
    _, a_bar, c_bar = normalization(spec)
    max_a = max(abs(v) for row in a_bar for v in row)
    max_c = max((abs(v) for v in c_bar), default=ZERO)
    return 1 + spec.n_eq * (2 + max_c + max_a)


def gen_graphic_from_lineq(spec: LineqMaSpec) -> Instance:
    """Disjoint K4 gadgets; spanning trees encode the per-equation choice.

    Per gadget, edge {0,1} plays "keep", the pairs {0,2}/{1,3} and
    {0,3}/{2,3} play "plus"/"minus", and {1,2} carries the large weight L
    that every best response must take.
    """
    state_names, prior = _lineq_prior(spec)
    triples = _channel_weights(spec)
    big = gadget_edge_scale(spec)
    n_eq = spec.n_eq
    edges = []
    element_names = []
    for t in range(n_eq):
        base = 4 * t
        for i, j in _K4_EDGES:
            edges.append((base + i, base + j))
            element_names.append(f"eq{t + 1}:{i}{j}")
    receiver = []
    for row in triples:
        flat = []
        for t in range(n_eq):
            keep, plus, minus = row[t]
            by_pair = {
                (0, 1): keep,
                (0, 2): plus,
                (1, 3): plus,
                (0, 3): minus,
                (2, 3): minus,
                (1, 2): big,
            }
            flat.extend(by_pair[pair] for pair in _K4_EDGES)
        receiver.append(flat)
    sender_row = []
    for _ in range(n_eq):
        sender_row.extend(
            Fraction(1, n_eq) if pair == (0, 1) else ZERO for pair in _K4_EDGES
        )
    sender = [sender_row] * len(state_names)
    return Instance(
        state_names=state_names,
        prior=prior,
        element_names=tuple(element_names),
        sender=UtilitySpec.from_linear(sender),
        receiver=UtilitySpec.from_linear(receiver),
        constraint=Graphic(num_vertices=4 * n_eq, edges=tuple(edges)),
    )


def gen_path_from_lineq(spec: LineqMaSpec) -> Instance:
    """Layered digraph, minimization sense: three channels per equation.

    Vertices: hub h_0 .. h_n_eq plus three mid nodes per layer; each layer t
    offers edges h_{t-1} -> mid_{t,j} carrying the weight triple and free
    edges mid_{t,j} -> h_t.  The sender pays 1/n_eq whenever a "plus" or
    "minus" channel is taken.
    """
    state_names, prior = _lineq_prior(spec)
    triples = _channel_weights(spec)
    n_eq = spec.n_eq
    # hub t = index t; mid (t, j) = n_eq + 1 + 3*(t-1) + j for t in 1..n_eq
    edges = []
    element_names = []
    for t in range(1, n_eq + 1):
        for j in range(3):
            edges.append((t - 1, n_eq + 1 + 3 * (t - 1) + j))
            element_names.append(f"eq{t}:in{j}")
        for j in range(3):
            edges.append((n_eq + 1 + 3 * (t - 1) + j, t))
            element_names.append(f"eq{t}:out{j}")
    receiver = []
    for row in triples:
        flat = []
        for t in range(n_eq):
            flat.extend(row[t])
            flat.extend((ZERO, ZERO, ZERO))
        receiver.append(flat)
    sender_row = []
    for _ in range(n_eq):
        sender_row.extend(
            (ZERO, Fraction(1, n_eq), Fraction(1, n_eq), ZERO, ZERO, ZERO)
        )
    sender = [sender_row] * len(state_names)
    return Instance(
        state_names=state_names,
        prior=prior,
        element_names=tuple(element_names),
        sender=UtilitySpec.from_linear(sender),
        receiver=UtilitySpec.from_linear(receiver),
        constraint=PathGraph(
            num_vertices=4 * n_eq + 1, edges=tuple(edges), source=0, sink=n_eq
        ),
        sense=Sense.MIN,
    )


class PublicPersuasionSpec(Record):
    """Public persuasion with binary per-receiver actions and no externalities.

    ``r0[theta][i]`` / ``r1[theta][i]``: receiver i's utility for action 0/1
    in each state.  ``sender[theta][i]``: the sender's (additive) gain when
    receiver i takes action 1.
    """

    __slots__ = ("state_names", "prior", "r0", "r1", "sender")

    def __init__(
        self,
        state_names: tuple[str, ...],
        prior: tuple[Fraction, ...],
        r0: tuple[tuple[Fraction, ...], ...],
        r1: tuple[tuple[Fraction, ...], ...],
        sender: tuple[tuple[Fraction, ...], ...],
    ):
        object.__setattr__(self, "state_names", state_names)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "sender", sender)
        D = len(self.state_names)
        if not (len(self.prior) == len(self.r0) == len(self.r1) == len(self.sender) == D):
            raise ParameterError("per-state tables must all match the state count")
        n = self.n_rec
        for rows in (self.r0, self.r1, self.sender):
            if any(len(row) != n for row in rows):
                raise ParameterError("per-receiver tables must have equal width")
            if any(v < 0 for row in rows for v in row):
                raise ParameterError("utilities must be nonnegative")

    @property
    def n_rec(self) -> int:
        return len(self.r0[0])

    @classmethod
    def make(cls, state_names, prior, r0, r1, sender) -> "PublicPersuasionSpec":
        conv = lambda rows: tuple(tuple(as_fraction(v) for v in row) for row in rows)
        return cls(
            state_names=tuple(state_names),
            prior=tuple(as_fraction(p) for p in prior),
            r0=conv(r0),
            r1=conv(r1),
            sender=conv(sender),
        )


def gen_partition_from_public(spec: PublicPersuasionSpec) -> Instance:
    """Two elements per receiver, one pick per block; choices decouple."""
    n = spec.n_rec
    element_names = tuple(
        f"r{i}:a{b}" for i in range(1, n + 1) for b in range(2)
    )
    receiver = [
        [row0[i] if b == 0 else row1[i] for i in range(n) for b in range(2)]
        for row0, row1 in zip(spec.r0, spec.r1)
    ]
    sender = [
        [ZERO if b == 0 else srow[i] for i in range(n) for b in range(2)]
        for srow in spec.sender
    ]
    blocks = tuple((2 * i, 2 * i + 1) for i in range(n))
    return Instance(
        state_names=spec.state_names,
        prior=spec.prior,
        element_names=element_names,
        sender=UtilitySpec.from_linear(sender),
        receiver=UtilitySpec.from_linear(receiver),
        constraint=Partition(blocks=blocks, caps=(1,) * n),
    )


TARGETS = {
    "uniform": gen_uniform_from_lineq,
    "graphic": gen_graphic_from_lineq,
    "path": gen_path_from_lineq,
}


def signal_fractions(spec: LineqMaSpec) -> tuple[Fraction, ...]:
    """Per state, the mass the completeness scheme routes to its lead signal."""
    if spec.known_solution is None:
        raise MissingSolution("completeness scheme needs a known 0/1 solution")
    tau, _, _ = normalization(spec)
    x_bar = [Fraction(v) / tau for v in spec.known_solution]
    total = sum(x_bar, ZERO)
    # tau >= 2 n_var^2 keeps total <= n_var/(2 n_var^2) < 1
    q = Fraction(spec.n_var * (spec.n_var - 1)) / (1 - total)
    lead = [ONE] + [q * x for x in x_bar]
    if any(not 0 <= p <= 1 for p in lead):
        raise ParameterError("lead-signal masses escaped [0, 1]")
    return tuple(lead)


def completeness_scheme(spec: LineqMaSpec, target: str = "uniform") -> SignalingScheme:
    """The two-signal witness scheme, expressed as a direct scheme.

    The lead signal carries the background state plus each variable state in
    proportion to the known solution; the other signal takes the rest.  Each
    signal is mapped to the receiver's best response at its posterior with
    sender-favoring ties, then the two recommendations are merged into a
    direct scheme.
    """
    if target not in TARGETS:
        raise ParameterError(f"unknown target {target!r}; pick one of {sorted(TARGETS)}")
    instance = TARGETS[target](spec)
    lead = signal_fractions(spec)
    D = instance.num_states
    phi: dict[tuple[int, ActionSet], Fraction] = {}
    for masses in (lead, tuple(ONE - p for p in lead)):
        total = sum(
            (instance.prior[t] * masses[t] for t in range(D)), ZERO
        )
        if total == 0:
            continue
        xi = Posterior(
            xi=tuple(instance.prior[t] * masses[t] / total for t in range(D))
        )
        action = tie_broken_response(instance, xi)
        for t in range(D):
            if masses[t] != 0:
                key = (t, action)
                phi[key] = phi.get(key, ZERO) + masses[t]
    return SignalingScheme.from_phi(D, phi)
