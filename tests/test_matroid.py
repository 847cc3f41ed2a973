"""Independence oracles and exact greedy against brute-force definitions."""

import itertools
import random
from fractions import Fraction

import pytest

from combisig import matroid
from combisig.errors import UnsupportedCombination, UnsupportedSense
from combisig.model import Graphic, OracleMatroid, Partition, PathGraph, Sense, Uniform

F = Fraction


def brute_is_forest(edges, chosen):
    """Cycle check by union-find over the chosen edge indices."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for idx in chosen:
        a, b = edges[idx]
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_uniform_independence():
    oracle = matroid.oracle_for(Uniform(2), 4)
    for size in range(5):
        for S in itertools.combinations(range(4), size):
            assert oracle.is_independent(S) == (len(S) <= 2)


def test_partition_independence():
    blocks = ((0, 1, 2), (3, 4))
    caps = (2, 1)
    oracle = matroid.oracle_for(Partition(blocks, caps), 5)
    for size in range(6):
        for S in itertools.combinations(range(5), size):
            expected = (
                len([e for e in S if e in blocks[0]]) <= 2
                and len([e for e in S if e in blocks[1]]) <= 1
            )
            assert oracle.is_independent(S) == expected


def test_graphic_independence_is_forest():
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    oracle = matroid.oracle_for(Graphic(4, edges), 6)
    for size in range(7):
        for S in itertools.combinations(range(6), size):
            assert oracle.is_independent(S) == brute_is_forest(edges, S)


def test_k4_spanning_tree_count():
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    oracle = matroid.oracle_for(Graphic(4, edges), 6)
    trees = [
        S for S in itertools.combinations(range(6), 3) if oracle.is_independent(S)
    ]
    assert len(trees) == 16  # Cayley: 4^{4-2}


def test_oracle_matroid_registry():
    matroid.register_independence_oracle(
        "unit-test-rank2", lambda S: len(S) <= 2
    )
    oracle = matroid.oracle_for(OracleMatroid("unit-test-rank2"), 5)
    assert oracle.is_independent((0, 4))
    assert not oracle.is_independent((0, 1, 2))


def test_greedy_matches_brute_force():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 7)
        kind = rng.choice(["uniform", "partition", "graphic"])
        if kind == "uniform":
            constraint = Uniform(rng.randint(1, n))
        elif kind == "partition":
            mid = rng.randint(1, n - 1) if n > 1 else 1
            constraint = Partition(
                (tuple(range(mid)), tuple(range(mid, n))),
                (rng.randint(1, mid), rng.randint(1, max(1, n - mid))),
            )
        else:
            pairs = list(itertools.combinations(range(4), 2))
            rng.shuffle(pairs)
            constraint = Graphic(4, tuple(sorted(pairs[:n])))
            n = len(constraint.edges)
        weights = [F(rng.randint(-5, 9)) for _ in range(n)]
        got = matroid.max_weight_action(constraint, weights, Sense.MAX)
        oracle = matroid.oracle_for(constraint, n)
        assert matroid.max_weight_action(constraint, weights, Sense.MAX, oracle) == got
        best = max(
            (
                sum((weights[e] for e in S), start=F(0))
                for size in range(n + 1)
                for S in itertools.combinations(range(n), size)
                if oracle.is_independent(S)
            ),
        )
        assert sum((weights[e] for e in got), start=F(0)) == best


def test_greedy_tie_break_lowest_index():
    got = matroid.max_weight_action(Uniform(1), [F(3), F(3)], Sense.MAX)
    assert got == (0,)


def test_greedy_skips_negative_weights():
    got = matroid.max_weight_action(Uniform(2), [F(5), F(-1)], Sense.MAX)
    assert got == (0,)


def test_sense_guards():
    with pytest.raises(UnsupportedSense):
        matroid.max_weight_action(Uniform(1), [F(1)], Sense.MIN)
    spec = PathGraph(2, ((0, 1),), 0, 1)
    with pytest.raises((UnsupportedSense, UnsupportedCombination)):
        matroid.max_weight_action(spec, [F(1)], Sense.MAX)
