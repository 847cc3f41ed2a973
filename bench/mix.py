"""Seeded instance mix shared by every workload.

The mix is a fixed list of slots.  A slot fixes what the solvers' cost
depends on most -- constraint family, ground-set size, number of states.
Each slot has ``VARIANTS`` generated instances, of which the ``ROUNDS``
nearest the slot's median reference cost are eligible; the run seed orders
them over the rounds of the mix.  A workload's passes alternate between the
rounds.  The composition of every round is the same for all seeds, and
every instance a run can meet has exact reference values in ``refs.json``.

Instances are built here as plain instance JSON, without importing the
package, so generation is not part of the measured set-up.  Max-sense
instances are kept only when they are clean under this module's own exact
audit (``is_clean``); it deliberately does not call
``best_response.check_nondegeneracy``, whose sampled mode a later change may
replace, so that no change to the package can change the inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
from fractions import Fraction

VARIANTS = 8  # instances generated per slot
ROUNDS = 2  # of them, the ones a run uses, nearest the slot's median cost
MAX_ACTIONS = 64  # bounds the full LP's size, which grows with the feasible sets
KINDS = ("uniform", "partition", "graphic", "oracle")
ORACLE_PREFIX = "bench-partition:"


def _matroid_slots() -> list[dict]:
    slots = []
    for n in range(3, 9):
        for states in (2, 3) if n <= 6 else (2,):
            for kind in KINDS:
                if kind == "graphic" and n > 6:
                    continue  # every graph with 7+ edges on 5 vertices has 64+ forests
                slots.append({"family": "matroid", "kind": kind, "n": n, "states": states})
    return slots


def _path_slots() -> list[dict]:
    return [
        {"family": "path", "layers": layers, "width": width, "states": states}
        for layers, width in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
        for states in (2, 3)
    ]


def _coverage_slots() -> list[dict]:
    return [{"family": "coverage", "n": 4, "states": 2} for _ in range(8)]


SLOTS = _matroid_slots() + _path_slots() + _coverage_slots()


# ---------------------------------------------------------------------------
# canonical JSON and digests (the package's canonical form, re-derived here)
# ---------------------------------------------------------------------------


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """SHA-256 of the canonical JSON, as ``jsonio.instance_digest`` computes it."""
    return hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()


def _rat(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# exact non-degeneracy audit
# ---------------------------------------------------------------------------


def _independent(vectors: list[list[Fraction]]) -> bool:
    m = [list(v) for v in vectors]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return True


def is_forest(pairs) -> bool:
    """True iff the pairs, read as graph edges, close no cycle."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def is_linear_forest(pairs) -> bool:
    """True iff the element pairs, read as graph edges, form vertex-disjoint paths."""
    degree: dict[int, int] = {}
    for pair in pairs:
        for v in pair:
            degree[v] = degree.get(v, 0) + 1
    return max(degree.values(), default=0) <= 2 and is_forest(pairs)


def is_clean(rows) -> bool:
    """Exact audit: for every set of D element pairs forming a linear forest,
    the D difference vectors of the receiver's per-element weights are
    linearly independent.  These sets are exactly the families of D
    consecutive pairs over all permutations of the elements."""
    states = len(rows)
    n = len(rows[0])
    psi = [[Fraction(rows[t][e]) for t in range(states)] for e in range(n)]
    all_pairs = list(itertools.combinations(range(n), 2))
    for family in itertools.combinations(all_pairs, states):
        if not is_linear_forest(family):
            continue
        if not _independent([[a - b for a, b in zip(psi[i], psi[j])] for i, j in family]):
            return False
    return True


# ---------------------------------------------------------------------------
# partition laws behind the oracle kind
# ---------------------------------------------------------------------------


def oracle_id(blocks, caps) -> str:
    law = "/".join("-".join(str(e) for e in block) for block in blocks)
    return ORACLE_PREFIX + law + ":" + ",".join(str(c) for c in caps)


def parse_oracle_id(text: str):
    law, caps = text[len(ORACLE_PREFIX):].split(":")
    blocks = [[int(e) for e in block.split("-")] for block in law.split("/")]
    return blocks, [int(c) for c in caps.split(",")]


def independence_fn(text: str):
    """The partition-law callable that ``oracle_id(blocks, caps)`` names."""
    blocks, caps = parse_oracle_id(text)
    block_of = {e: b for b, block in enumerate(blocks) for e in block}

    def is_independent(action) -> bool:
        counts = [0] * len(caps)
        for e in action:
            counts[block_of[e]] += 1
        return all(c <= cap for c, cap in zip(counts, caps))

    return is_independent


def register_oracles(combisig_matroid, instances) -> None:
    """Register the callable of every oracle-kind instance in the list."""
    for inst in instances:
        constraint = inst["constraint"]
        if constraint["kind"] == "oracle":
            combisig_matroid.register_independence_oracle(
                constraint["oracle_id"], independence_fn(constraint["oracle_id"])
            )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _prior(rng: random.Random, states: int) -> list:
    weights = [rng.randint(1, 9) for _ in range(states)]
    total = sum(weights)
    return [_rat(Fraction(w, total)) for w in weights]


def _rows(rng: random.Random, states: int, n: int, hi: int) -> list[list[int]]:
    return [[rng.randint(1, hi) for _ in range(n)] for _ in range(states)]


def _blocks(rng: random.Random, n: int):
    blocks, caps, i = [], [], 0
    while i < n:
        size = min(rng.randint(1, 3), n - i)
        blocks.append(list(range(i, i + size)))
        caps.append(rng.randint(1, size))
        i += size
    return blocks, caps


def _constraint(rng: random.Random, kind: str, n: int) -> dict:
    if kind == "uniform":
        return {"kind": "uniform", "k": rng.randint(1, n - 1)}
    if kind == "partition":
        blocks, caps = _blocks(rng, n)
        return {"kind": "partition", "blocks": blocks, "caps": caps}
    if kind == "graphic":
        low = next(v for v in range(2, 6) if v * (v - 1) // 2 >= n)
        num_v = rng.randint(low, 5)
        pairs = list(itertools.combinations(range(num_v), 2))
        rng.shuffle(pairs)
        return {"kind": "graphic", "num_vertices": num_v, "edges": sorted(pairs[:n])}
    blocks, caps = _blocks(rng, n)
    return {"kind": "oracle", "oracle_id": oracle_id(blocks, caps)}


def count_actions(constraint: dict, n: int) -> int:
    """Number of independent sets of a matroid constraint, by brute force."""
    kind = constraint["kind"]
    if kind == "uniform":
        return sum(math.comb(n, i) for i in range(constraint["k"] + 1))
    if kind == "graphic":
        edges = constraint["edges"]
        return sum(
            1
            for size in range(n + 1)
            for subset in itertools.combinations(edges, size)
            if is_forest(subset)
        )
    if kind == "partition":
        blocks, caps = constraint["blocks"], constraint["caps"]
    else:
        blocks, caps = parse_oracle_id(constraint["oracle_id"])
    return math.prod(
        sum(math.comb(len(block), i) for i in range(cap + 1))
        for block, cap in zip(blocks, caps)
    )


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _matroid_instance(rng: random.Random, slot: dict) -> dict:
    n, states = slot["n"], slot["states"]
    hi = 9 if n <= 5 else 99
    while True:
        receiver = _rows(rng, states, n, hi)
        sender = _rows(rng, states, n, hi)
        constraint = _constraint(rng, slot["kind"], n)
        prior = _prior(rng, states)
        if count_actions(constraint, n) <= MAX_ACTIONS and is_clean(receiver):
            return {
                "states": _names("s", states),
                "prior": prior,
                "elements": _names("e", n),
                "sender": {"kind": "linear", "rows": sender},
                "receiver": {"kind": "linear", "rows": receiver},
                "constraint": constraint,
                "sense": "max",
            }


def _layered_dag(rng: random.Random, layers: int, width: int) -> dict:
    """source -> ``layers`` layers of ``width`` vertices -> sink.

    Every vertex keeps at least one edge in and out, and each vertex has a
    random subset of the next layer as successors, so path counts vary."""
    levels = [[0]]
    nxt = 1
    for _ in range(layers):
        levels.append(list(range(nxt, nxt + width)))
        nxt += width
    levels.append([nxt])
    edges = set()
    for here, there in zip(levels, levels[1:]):
        for u in here:
            succ = [v for v in there if rng.random() < 0.7] or [rng.choice(there)]
            edges.update((u, v) for v in succ)
        for v in there:
            if not any((u, v) in edges for u in here):
                edges.add((rng.choice(here), v))
    return {
        "kind": "path",
        "num_vertices": nxt + 1,
        "edges": [list(e) for e in sorted(edges)],
        "source": 0,
        "sink": nxt,
    }


def _path_instance(rng: random.Random, slot: dict) -> dict:
    states = slot["states"]
    constraint = _layered_dag(rng, slot["layers"], slot["width"])
    m = len(constraint["edges"])
    return {
        "states": _names("s", states),
        "prior": _prior(rng, states),
        "elements": _names("e", m),
        "sender": {"kind": "linear", "rows": _rows(rng, states, m, 9)},
        "receiver": {"kind": "linear", "rows": _rows(rng, states, m, 9)},
        "constraint": constraint,
        "sense": "min",
    }


def _coverage_instance(rng: random.Random, slot: dict) -> dict:
    """Weighted-coverage sender (monotone submodular), linear receiver."""
    n, states, universe = slot["n"], slot["states"], 5
    weights = [[rng.randint(1, 5) for _ in range(universe)] for _ in range(states)]
    covers = [set(rng.sample(range(universe), rng.randint(1, universe))) for _ in range(n)]
    tables = [{} for _ in range(states)]
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            covered = set().union(*(covers[e] for e in subset))
            key = ",".join(str(e) for e in subset)
            for t in range(states):
                tables[t][key] = sum(weights[t][u] for u in covered)
    return {
        "states": _names("s", states),
        "prior": _prior(rng, states),
        "elements": _names("e", n),
        "sender": {"kind": "tabular", "tables": tables},
        "receiver": {"kind": "linear", "rows": _rows(rng, states, n, 9)},
        "constraint": {"kind": "uniform", "k": rng.randint(1, n - 1)},
        "sense": "max",
    }


_BUILDERS = {
    "matroid": _matroid_instance,
    "path": _path_instance,
    "coverage": _coverage_instance,
}


def variant(slot_index: int, variant_index: int) -> dict:
    """The instance JSON of one pool entry; a pure function of its indices."""
    rng = random.Random(f"combisig-bench/{slot_index}/{variant_index}")
    slot = SLOTS[slot_index]
    return _BUILDERS[slot["family"]](rng, slot)


def eligible(costs: dict, slot_index: int) -> list[int]:
    """The ``ROUNDS`` variants of a slot whose reference costs lie nearest the
    slot's median, summing ``|log(cost / median)|`` over the cost dimensions
    the slot has (``costs["slot/variant"]``: seconds of ``solve_full``,
    ``solve_reduced``, ``solve_cce_approx``, ``solve_cce_exact``).

    Single solves are heavy-tailed: one slot's variants differ up to
    tenfold, so a free pick among all of them moved a pass's time by half
    and its percentiles by a third between seeds."""
    rows = [costs[f"{slot_index}/{v}"] for v in range(VARIANTS)]
    dims = [k for k in range(len(rows[0])) if all(row[k] > 0 for row in rows)]
    medians = {k: statistics.median(row[k] for row in rows) for k in dims}

    def distance(v: int) -> float:
        return sum(abs(math.log(rows[v][k] / medians[k])) for k in dims)

    return sorted(range(VARIANTS), key=lambda v: (distance(v), v))[:ROUNDS]


def build(seed: int, costs: dict) -> list[list[dict]]:
    """The mix for a run seed: ``ROUNDS`` rounds, each one instance per slot.

    The seed orders each slot's eligible variants over the rounds.  An entry
    has the slot index, the variant, the slot parameters, the instance JSON
    and its digest."""
    rng = random.Random(seed)
    rounds: list[list[dict]] = [[] for _ in range(ROUNDS)]
    for index, slot in enumerate(SLOTS):
        for entries, v in zip(rounds, rng.sample(eligible(costs, index), ROUNDS)):
            instance = variant(index, v)
            entries.append(
                {"slot": index, "variant": v, **slot, "instance": instance, "digest": digest(instance)}
            )
    return rounds


def mix_digest(rounds: list[list[dict]]) -> str:
    joined = "".join(e["digest"] for entries in rounds for e in entries)
    return hashlib.sha256(joined.encode("ascii")).hexdigest()
