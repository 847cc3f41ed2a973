"""Core data model: instances, utilities, constraints, schemes, beliefs.

States and ground-set elements are dense 0-based indices everywhere in the
library; human-readable names are kept alongside purely for serialization.
Actions are canonically represented as sorted tuples of element indices.

Every public quantity is an exact ``Fraction``; the hot loops read an
integer view, built on first use so parsing pays nothing: the utilities'
rows or tables (``UtilitySpec.ints``) and the prior (``Instance.masses``)
as integer numerators over one positive denominator, the lcm of their
entries' denominators.  Weights and comparisons made of it are the
``Fraction`` ones times a positive integer, so no order, tie or verdict moves.
``Instance._actions`` keeps ``persuasion.feasible_actions``' list the same way.
``Posterior`` is a belief's public ``Fraction`` form; the engines read a
belief as integer weights over their sum (``persuasion``).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from typing import Mapping

from .errors import InstanceFormatError, MissingTabularEntry, NoPath
from .rationals import ONE, ZERO, as_fraction, over_one_denominator

ActionSet = tuple[int, ...]

TABULAR_MAX_ELEMENTS = 16


def make_action(elements) -> ActionSet:
    """Canonical action representation: strictly increasing tuple of indices."""
    action = tuple(sorted(set(int(e) for e in elements)))
    return action


class Record:
    """Base of the package's immutable value types.  They are written by
    hand: the standard library's class generator imports ``inspect`` and
    builds each method with ``exec``, start-up cost in every CLI process.

    A subclass names its fields in ``__slots__`` and sets each one in its
    ``__init__`` with ``object.__setattr__``.  Equality, hashing, ``repr``
    and pickling follow the fields in slot order; assignment raises.  A
    slot named with a leading underscore holds a cache, not a field, and
    all four ignore it.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Sense(enum.Enum):
    MAX = "max"
    MIN = "min"


class UtilityKind(enum.Enum):
    LINEAR = "linear"
    TABULAR = "tabular"


class UtilitySpec(Record):
    """Per-state utility over actions, either additive over elements or a table.

    ``linear``: for each state, a vector of singleton values; the value of an
    action is the sum of its elements' values.  ``tabular``: for each state, an
    explicit map from actions to values (tiny instances only).
    """

    __slots__ = ("kind", "linear", "tabular", "_ints")

    def __init__(
        self,
        kind: UtilityKind,
        linear: tuple[tuple[Fraction, ...], ...] | None = None,
        tabular: tuple[Mapping[ActionSet, Fraction], ...] | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "tabular", tabular)

    @classmethod
    def from_linear(cls, rows) -> "UtilitySpec":
        parsed = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        if not parsed:
            raise InstanceFormatError("linear utility needs at least one state row")
        width = len(parsed[0])
        for row in parsed:
            if len(row) != width:
                raise InstanceFormatError("linear utility rows have unequal lengths")
            for v in row:
                if v < 0:
                    raise InstanceFormatError("utilities must be nonnegative")
        return cls(kind=UtilityKind.LINEAR, linear=parsed)

    @classmethod
    def from_tabular(cls, tables) -> "UtilitySpec":
        parsed = []
        for table in tables:
            entries: dict[ActionSet, Fraction] = {}
            for action, value in table.items():
                act = make_action(action)
                val = as_fraction(value)
                if val < 0:
                    raise InstanceFormatError("utilities must be nonnegative")
                entries[act] = val
            if () not in entries:
                raise InstanceFormatError("tabular utility must define the empty action")
            parsed.append(entries)
        if not parsed:
            raise InstanceFormatError("tabular utility needs at least one state table")
        return cls(kind=UtilityKind.TABULAR, tabular=tuple(parsed))

    @property
    def num_states(self) -> int:
        if self.kind is UtilityKind.LINEAR:
            return len(self.linear)
        return len(self.tabular)

    @property
    def ints(self) -> tuple[tuple, int]:
        """Per state, the row or table over one denominator (module
        docstring): (integer rows or tables, denominator)."""
        try:
            return self._ints
        except AttributeError:
            if self.kind is UtilityKind.LINEAR:
                den = lcm(*(v.denominator for row in self.linear for v in row))
                rows = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in self.linear)
            else:
                den = lcm(*(v.denominator for table in self.tabular for v in table.values()))
                rows = tuple({a: v.numerator * (den // v.denominator) for a, v in t.items()} for t in self.tabular)
            object.__setattr__(self, "_ints", (rows, den))
            return self._ints

    def int_value(self, state: int, action: ActionSet) -> int:
        """``value`` times the view's denominator, in integers."""
        rows, _ = self.ints
        if self.kind is UtilityKind.LINEAR:
            row = rows[state]
            if action and not (0 <= min(action) and max(action) < len(row)):
                raise InstanceFormatError(f"element index out of range in {action}")
            return sum(map(row.__getitem__, action))
        try:
            return rows[state][action]
        except KeyError:
            raise MissingTabularEntry(f"state {state} has no tabular value for action {action}") from None

    def value(self, state: int, action: ActionSet) -> Fraction:
        """Utility of ``action`` in ``state``."""
        return Fraction(self.int_value(state, action), self.ints[1])


# --------------------------------------------------------------------------
# Constraint families
# --------------------------------------------------------------------------


class Uniform(Record):
    """Independent sets are all subsets of size at most k."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        object.__setattr__(self, "k", k)


class Partition(Record):
    """Blocks partition the ground set; at most caps[b] elements per block."""

    __slots__ = ("blocks", "caps")

    def __init__(self, blocks: tuple[tuple[int, ...], ...], caps: tuple[int, ...]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "caps", caps)


class Graphic(Record):
    """Elements are edges of a multigraph; independent sets are acyclic.
    ``edges[e] = (u, v)`` for element e."""

    __slots__ = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)


class OracleMatroid(Record):
    """Matroid given only through a registered independence callable."""

    __slots__ = ("oracle_id",)

    def __init__(self, oracle_id: str):
        object.__setattr__(self, "oracle_id", oracle_id)


class PathGraph(Record):
    """Directed graph; feasible actions are simple source-sink paths (min sense).
    ``edges[e] = (tail, head)`` for element e."""

    __slots__ = ("num_vertices", "edges", "source", "sink")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...], source: int, sink: int):
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)


Constraint = Uniform | Partition | Graphic | OracleMatroid | PathGraph

MATROID_KINDS = (Uniform, Partition, Graphic, OracleMatroid)


def _validate_constraint(constraint: Constraint, n: int) -> None:
    if isinstance(constraint, Uniform):
        if not 1 <= constraint.k <= n:
            raise InstanceFormatError(f"uniform cap k={constraint.k} outside 1..{n}")
    elif isinstance(constraint, Partition):
        seen: set[int] = set()
        for block in constraint.blocks:
            for e in block:
                if e in seen:
                    raise InstanceFormatError(f"element {e} appears in two blocks")
                seen.add(e)
        if seen != set(range(n)):
            raise InstanceFormatError("partition blocks must cover the ground set exactly")
        if len(constraint.caps) != len(constraint.blocks):
            raise InstanceFormatError("one cap per block required")
        if any(c < 1 for c in constraint.caps):
            raise InstanceFormatError("partition caps must be positive")
    elif isinstance(constraint, Graphic):
        if len(constraint.edges) != n:
            raise InstanceFormatError("graphic constraint needs one edge per element")
        for u, v in constraint.edges:
            if not (0 <= u < constraint.num_vertices and 0 <= v < constraint.num_vertices):
                raise InstanceFormatError("edge endpoint out of range")
    elif isinstance(constraint, OracleMatroid):
        if not constraint.oracle_id:
            raise InstanceFormatError("oracle matroid needs a nonempty id")
    elif isinstance(constraint, PathGraph):
        if len(constraint.edges) != n:
            raise InstanceFormatError("path constraint needs one edge per element")
        V = constraint.num_vertices
        for u, v in constraint.edges:
            if not (0 <= u < V and 0 <= v < V):
                raise InstanceFormatError("edge endpoint out of range")
        if not (0 <= constraint.source < V and 0 <= constraint.sink < V):
            raise InstanceFormatError("source/sink out of range")
        if constraint.source == constraint.sink:
            raise InstanceFormatError("source and sink must differ")
        if not _sink_reachable(constraint):
            raise NoPath("no source-sink path exists")
    else:  # pragma: no cover - union exhausts the cases
        raise InstanceFormatError(f"unknown constraint {constraint!r}")


def _sink_reachable(spec: PathGraph) -> bool:
    adjacent: dict[int, list[int]] = {}
    for u, v in spec.edges:
        adjacent.setdefault(u, []).append(v)
    frontier = [spec.source]
    seen = {spec.source}
    while frontier:
        u = frontier.pop()
        for v in adjacent.get(u, ()):
            if v == spec.sink:
                return True
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return False


# --------------------------------------------------------------------------
# Instance
# --------------------------------------------------------------------------


class Instance(Record):
    """A persuasion instance: prior, utilities for both players, feasible actions."""

    __slots__ = ("state_names", "prior", "element_names", "sender", "receiver", "constraint", "sense",
                 "_masses", "_actions")

    def __init__(
        self,
        state_names: tuple[str, ...],
        prior: tuple[Fraction, ...],
        element_names: tuple[str, ...],
        sender: UtilitySpec,
        receiver: UtilitySpec,
        constraint: Constraint,
        sense: Sense = Sense.MAX,
    ):
        object.__setattr__(self, "state_names", state_names)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "element_names", element_names)
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "constraint", constraint)
        object.__setattr__(self, "sense", sense)
        n_states = len(self.state_names)
        n = len(self.element_names)
        if n_states == 0 or n == 0:
            raise InstanceFormatError("need at least one state and one element")
        if len(self.prior) != n_states:
            raise InstanceFormatError("prior length must match the number of states")
        if sum(self.prior, ZERO) != ONE:
            raise InstanceFormatError("prior must sum to exactly 1")
        if any(p <= 0 for p in self.prior):
            raise InstanceFormatError("prior must be strictly positive (strip zero states)")
        if len(set(self.state_names)) != n_states or len(set(self.element_names)) != n:
            raise InstanceFormatError("names must be unique")
        for util, who in ((self.sender, "sender"), (self.receiver, "receiver")):
            if util.num_states != n_states:
                raise InstanceFormatError(f"{who} utility has the wrong number of states")
            if util.kind is UtilityKind.LINEAR:
                if any(len(row) != n for row in util.linear):
                    raise InstanceFormatError(f"{who} linear utility has wrong width")
            else:
                if n > TABULAR_MAX_ELEMENTS:
                    raise InstanceFormatError(
                        f"tabular utilities capped at {TABULAR_MAX_ELEMENTS} elements"
                    )
                for table in util.tabular:
                    for action in table:
                        if action and (action[0] < 0 or action[-1] >= n):
                            raise InstanceFormatError("tabular action out of range")
        _validate_constraint(self.constraint, n)
        if self.sense is Sense.MIN and not isinstance(self.constraint, PathGraph):
            raise InstanceFormatError("minimization is only supported for path constraints")

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_elements(self) -> int:
        return len(self.element_names)

    @property
    def masses(self) -> tuple[list[int], int]:
        """The prior over one denominator: (integer masses, denominator)."""
        try:
            return self._masses
        except AttributeError:
            object.__setattr__(self, "_masses", over_one_denominator(self.prior))
            return self._masses


# --------------------------------------------------------------------------
# Beliefs and schemes
# --------------------------------------------------------------------------


class Posterior(Record):
    """A distribution over states, in ``Fraction``s."""

    __slots__ = ("xi",)

    def __init__(self, xi: tuple[Fraction, ...]):
        object.__setattr__(self, "xi", xi)
        if any(p < 0 for p in self.xi):
            raise InstanceFormatError("posterior entries must be nonnegative")
        if sum(self.xi, ZERO) != ONE:
            raise InstanceFormatError("posterior must sum to exactly 1")


class SignalingScheme(Record):
    """A direct scheme: per state, a distribution over recommended actions.

    ``phi`` maps (state index, action) to a probability; missing pairs are
    zero.  ``support`` lists every action that receives positive probability
    under some state.  Stored densely, ``probs[k * num_states + t]`` is the
    probability of ``support[k]`` in state t; ``phi`` is rebuilt on access.
    """

    __slots__ = ("num_states", "support", "probs")

    def __init__(
        self,
        num_states: int,
        support: tuple[ActionSet, ...],
        phi: Mapping[tuple[int, ActionSet], Fraction],
    ):
        index = {action: k for k, action in enumerate(support)}
        if len(index) != len(support):
            raise InstanceFormatError("scheme support contains duplicates")
        probs = [ZERO] * (len(support) * num_states)
        for (state, action), prob in phi.items():
            if not 0 <= state < num_states:
                raise InstanceFormatError(f"state index {state} out of range")
            if action not in index:
                raise InstanceFormatError(f"phi entry for non-support action {action}")
            if prob < 0:
                raise InstanceFormatError("scheme probabilities must be nonnegative")
            probs[index[action] * num_states + state] = prob
        for state in range(num_states):
            total = sum(probs[state::num_states], ZERO)
            if total != ONE:
                raise InstanceFormatError(f"probabilities for state {state} sum to {total}, expected 1")
        object.__setattr__(self, "num_states", num_states)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", tuple(probs))

    def __reduce__(self):
        return type(self), (self.num_states, self.support, self.phi)

    @property
    def phi(self) -> dict[tuple[int, ActionSet], Fraction]:
        T = self.num_states
        return {(i % T, self.support[i // T]): p for i, p in enumerate(self.probs) if p}

    @classmethod
    def from_phi(cls, num_states: int, phi: Mapping[tuple[int, ActionSet], Fraction]):
        """Build a scheme from a raw map, dropping exact zeros and dead actions."""
        cleaned = {key: p for key, p in phi.items() if p}
        support = tuple(sorted({action for (_, action) in cleaned}))
        return cls(num_states=num_states, support=support, phi=cleaned)


def deterministic_scheme(num_states: int, action: ActionSet) -> SignalingScheme:
    """The uninformative scheme that always recommends ``action``."""
    phi = {(state, action): ONE for state in range(num_states)}
    return SignalingScheme(num_states=num_states, support=(action,), phi=phi)


def expected_value(utility: UtilitySpec, belief: Posterior, action: ActionSet) -> Fraction:
    """Expected utility of ``action`` under the belief."""
    if len(belief.xi) != utility.num_states:
        raise InstanceFormatError("belief dimension does not match the utility")
    total = ZERO
    for state, weight in enumerate(belief.xi):
        if weight != 0:
            total += weight * utility.value(state, action)
    return total
