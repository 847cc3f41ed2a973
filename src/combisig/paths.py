"""Simple-path machinery for the minimization setting."""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from .errors import InstanceFormatError, NoPath, TooLarge
from .model import ActionSet, PathGraph, make_action

DEFAULT_PATH_CAP = 100_000


def shortest_path(spec: PathGraph, weights: Sequence[Fraction]) -> ActionSet:
    """Min-cost source-sink path under nonnegative edge weights.

    Dijkstra over (cost, edge-index sequence) keys: exact rational or
    integer costs, ties broken by the lexicographically smallest sequence
    of edge indices along the path, which makes the result deterministic.
    """
    if len(weights) != len(spec.edges):
        raise InstanceFormatError("one weight per edge required")
    if any(w < 0 for w in weights):
        raise InstanceFormatError("shortest path requires nonnegative weights")
    out_edges: dict[int, list[int]] = {}
    for e, (u, _) in enumerate(spec.edges):
        out_edges.setdefault(u, []).append(e)
    start: tuple[Fraction, tuple[int, ...]] = (0, ())  # int zero: integer weights stay integers
    best: dict[int, tuple[Fraction, tuple[int, ...]]] = {spec.source: start}
    heap: list[tuple[Fraction, tuple[int, ...], int]] = [(0, (), spec.source)]
    done: set[int] = set()
    while heap:
        dist, seq, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == spec.sink:
            return make_action(seq)
        for e in out_edges.get(u, ()):
            v = spec.edges[e][1]
            if v in done:
                continue
            cand = (dist + weights[e], seq + (e,))
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], v))
    raise NoPath("no source-sink path exists")


def enumerate_paths(spec: PathGraph, cap: int = DEFAULT_PATH_CAP) -> list[ActionSet]:
    """All simple source-sink paths as edge sets, in DFS order; guarded by ``cap``."""
    out_edges: dict[int, list[int]] = {}
    for e, (u, _) in enumerate(spec.edges):
        out_edges.setdefault(u, []).append(e)
    paths: list[ActionSet] = []
    _dfs(spec, out_edges, cap, spec.source, {spec.source}, [], paths)
    if not paths:
        raise NoPath("no source-sink path exists")
    return paths


def _dfs(spec: PathGraph, out_edges: dict, cap: int, u: int, visited: set, stack_edges: list, paths: list) -> None:
    """Append every simple path from ``u`` to the sink that extends the
    edges ``stack_edges`` through the ``visited`` nodes.  (A module-level
    recursion: a recursive closure is a reference cycle.)"""
    if u == spec.sink:
        paths.append(make_action(stack_edges))
        if len(paths) > cap:
            raise TooLarge(f"more than {cap} source-sink paths", bound=cap)
        return
    for e in out_edges.get(u, ()):
        v = spec.edges[e][1]
        if v in visited:
            continue
        visited.add(v)
        stack_edges.append(e)
        _dfs(spec, out_edges, cap, v, visited, stack_edges, paths)
        stack_edges.pop()
        visited.remove(v)


def is_path_action(spec: PathGraph, action: ActionSet) -> bool:
    """True iff the edge set is exactly a simple source-sink path."""
    if not action or action[0] < 0 or action[-1] >= len(spec.edges):
        return False
    by_tail: dict[int, list[int]] = {}
    for e in action:
        u, _ = spec.edges[e]
        by_tail.setdefault(u, []).append(e)
    remaining = set(action)
    u = spec.source
    visited = {u}
    while remaining:
        outs = [e for e in by_tail.get(u, ()) if e in remaining]
        if len(outs) != 1:
            return False
        e = outs[0]
        remaining.discard(e)
        u = spec.edges[e][1]
        if u in visited:
            return False
        visited.add(u)
    return u == spec.sink
