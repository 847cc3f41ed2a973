"""Matroid independence oracles and exact greedy maximization.

Every oracle is stateless per query: the graphic oracle rebuilds its
union-find scratch on each call rather than caching, so concurrent callers
and repeated queries cannot observe stale state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import InstanceFormatError, UnsupportedSense
from .model import (
    ActionSet,
    Constraint,
    Graphic,
    OracleMatroid,
    Partition,
    PathGraph,
    Uniform,
    make_action,
)

IndependenceFn = Callable[[ActionSet], bool]

_ORACLE_REGISTRY: dict[str, IndependenceFn] = {}


def register_independence_oracle(oracle_id: str, fn: IndependenceFn) -> None:
    """Register a callable deciding independence for OracleMatroid(oracle_id)."""
    if not oracle_id:
        raise InstanceFormatError("oracle id must be nonempty")
    _ORACLE_REGISTRY[oracle_id] = fn


def registered_oracle(oracle_id: str) -> IndependenceFn:
    try:
        return _ORACLE_REGISTRY[oracle_id]
    except KeyError:
        raise InstanceFormatError(f"no independence oracle registered as {oracle_id!r}") from None


class MatroidOracle:
    """Independence oracle over ground set {0, ..., n-1}."""

    def __init__(self, n: int, fn: IndependenceFn):
        self.n = n
        self._fn = fn

    def is_independent(self, subset: Iterable[int]) -> bool:
        action = make_action(subset)
        if action and (action[0] < 0 or action[-1] >= self.n):
            raise InstanceFormatError(f"subset {action} not within the ground set")
        return self._fn(action)


def _uniform_fn(k: int) -> IndependenceFn:
    return lambda action: len(action) <= k


def _partition_fn(spec: Partition) -> IndependenceFn:
    block_of: dict[int, int] = {}
    for b, block in enumerate(spec.blocks):
        for e in block:
            block_of[e] = b

    def fn(action: ActionSet) -> bool:
        counts = [0] * len(spec.caps)
        for e in action:
            b = block_of[e]
            counts[b] += 1
            if counts[b] > spec.caps[b]:
                return False
        return True

    return fn


def _graphic_fn(spec: Graphic) -> IndependenceFn:
    def fn(action: ActionSet) -> bool:
        # Fresh union-find per query; adding an edge inside one component
        # closes a cycle, which is exactly graphic dependence.
        parent = list(range(spec.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in action:
            u, v = spec.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return fn


def oracle_for(constraint: Constraint, n: int) -> MatroidOracle:
    """Build the independence oracle for a matroid-kind constraint."""
    if isinstance(constraint, Uniform):
        return MatroidOracle(n, _uniform_fn(constraint.k))
    if isinstance(constraint, Partition):
        return MatroidOracle(n, _partition_fn(constraint))
    if isinstance(constraint, Graphic):
        return MatroidOracle(n, _graphic_fn(constraint))
    if isinstance(constraint, OracleMatroid):
        return MatroidOracle(n, registered_oracle(constraint.oracle_id))
    raise UnsupportedSense(f"{type(constraint).__name__} is not a matroid constraint")


def greedy(oracle: MatroidOracle, order: Iterable[int]) -> ActionSet:
    """Scan elements in ``order`` and keep each one that leaves the chosen
    set independent.  With the order by descending weight this is Edmonds'
    greedy algorithm: an independent set of maximum weight among the
    elements scanned."""
    chosen: list[int] = []
    for e in order:
        if oracle.is_independent(chosen + [e]):
            chosen.append(e)
    return make_action(chosen)


def greedy_max_weight(oracle: MatroidOracle, weights: Sequence) -> ActionSet:
    """Exact maximum-weight independent set for additive weights.

    Scans the elements of weight >= 0 in descending weight order, ties
    broken by ascending index, through ``greedy``.  Weights are numbers
    (Fractions, ints).
    """
    if len(weights) != oracle.n:
        raise InstanceFormatError("one weight per ground-set element required")
    # sorted() is stable, so reverse-sorting keeps ascending index among ties.
    order = sorted(range(oracle.n), key=lambda e: weights[e], reverse=True)
    return greedy(oracle, (e for e in order if weights[e] >= 0))


def max_weight_action(
    constraint: Constraint, weights: Sequence, sense=None, oracle: MatroidOracle | None = None
) -> ActionSet:
    """Dispatch to the exact optimizer for the constraint family.

    Matroid kinds maximize via greedy, on ``oracle`` when the caller built
    it once for many calls (else ``oracle_for``); path constraints minimize
    via Dijkstra.  An explicit ``sense`` that disagrees with the family
    raises UnsupportedSense.
    """
    from .model import Sense

    if isinstance(constraint, PathGraph):
        if sense is Sense.MAX:
            raise UnsupportedSense("maximization over paths is not supported")
        from .paths import shortest_path

        return shortest_path(constraint, weights)
    if sense is Sense.MIN:
        raise UnsupportedSense("minimization over matroids is not supported")
    return greedy_max_weight(oracle or oracle_for(constraint, len(weights)), weights)
