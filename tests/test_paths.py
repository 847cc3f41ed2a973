"""Path enumeration and exact shortest path on edge-index digraphs."""

import random
from fractions import Fraction

import pytest

from combisig import paths
from combisig.errors import NoPath, TooLarge
from combisig.model import PathGraph

F = Fraction


def diamond():
    return PathGraph(4, ((0, 1), (0, 2), (1, 3), (2, 3)), 0, 3)


def layered(n_eq):
    """Hub chain with 3 parallel two-edge channels per layer."""
    edges = []
    for t in range(1, n_eq + 1):
        hub_in, hub_out = t - 1, t
        for j in range(3):
            mid = n_eq + 1 + 3 * (t - 1) + j
            edges.append((hub_in, mid))
        for j in range(3):
            mid = n_eq + 1 + 3 * (t - 1) + j
            edges.append((mid, hub_out))
    return PathGraph(n_eq + 1 + 3 * n_eq, tuple(edges), 0, n_eq)


def test_enumerate_diamond():
    found = paths.enumerate_paths(diamond(), 100)
    assert sorted(found) == [(0, 2), (1, 3)]


def test_enumerate_layered_count():
    for n_eq in (1, 2, 3):
        found = paths.enumerate_paths(layered(n_eq), 100_000)
        assert len(found) == 3**n_eq
        assert len(set(found)) == len(found)


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        paths.enumerate_paths(layered(3), 10)


def test_shortest_path_brute_force():
    rng = random.Random(5)
    spec = layered(2)
    m = len(spec.edges)
    for _ in range(40):
        weights = [F(rng.randint(0, 9)) for _ in range(m)]
        got = paths.shortest_path(spec, weights)
        everything = paths.enumerate_paths(spec, 1000)
        best = min(sum(weights[e] for e in P) for P in everything)
        assert sum(weights[e] for e in got) == best


def test_shortest_path_tie_lexicographic():
    spec = PathGraph(2, ((0, 1), (0, 1)), 0, 1)
    assert paths.shortest_path(spec, [F(2), F(2)]) == (0,)


def test_no_path():
    spec = PathGraph(3, ((0, 1),), 0, 2)
    with pytest.raises(NoPath):
        paths.shortest_path(spec, [F(1)])


def test_is_path_action():
    spec = diamond()
    assert paths.is_path_action(spec, (0, 2))
    assert paths.is_path_action(spec, (1, 3))
    assert not paths.is_path_action(spec, (0, 3))
    assert not paths.is_path_action(spec, (0,))
    # -2 would index edge 2 from the end and complete the path 0 -> 1 -> 3
    assert not paths.is_path_action(spec, (-2, 0))
    assert not paths.is_path_action(spec, (0, 4))
