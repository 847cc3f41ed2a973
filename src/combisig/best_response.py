"""Receiver best-response analysis over the belief simplex.

For a linear receiver over a matroid, which independent set is optimal
depends on the belief only through the descending order of expected
singleton weights, and that order is constant on each cell of the
arrangement of pairwise comparison hyperplanes.  Enumerating the cells and
running greedy once per cell therefore yields every action that can be a
best response at some belief.

Degenerate utility data (collinear difference vectors) is audited by
``check_nondegeneracy`` with fraction-free (Bareiss) rank tests; when
violations are found the catalog is built under a symbolic perturbation:
element i's weight carries an extra eps^(i+1) bump on state i mod D.  No
numeric eps is ever picked: the perturbed order of two elements is the
order of their exact weights, then of the signs of their bumps
(``greedy_at_point``).  Inside the open simplex every bump is strictly
positive, so the perturbed comparison reduces to the exact weights with
ties broken by ascending element index, and pairs of identical elements
(whose perturbed comparison never vanishes on the interior) simply drop out
of the hyperplane family.  On a face of the simplex the bumps of the states
outside the face vanish, which can reverse such a tie; the catalog
evaluates those tie-breaks at the boundary beliefs the cell enumeration
reports.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm

from . import arrangement, matroid
from .errors import NonLinearReceiver, TooLarge, UnsupportedCombination, UnsupportedSense
from .model import (
    MATROID_KINDS,
    ActionSet,
    Instance,
    Partition,
    Record,
    Sense,
    UtilityKind,
)
from .rationals import ZERO

# Linear forests the non-degeneracy audit may check: about 7 s of integer rank
# tests with 3 states, 25 s with 5 (802,332 families of a 19-element, 3-state
# instance take 5.4 s, 643,545 of a 10-element, 5-state one 15 s; 2 vCPU VM).
AUDIT_FAMILY_CAP = 1_000_000


class NondegeneracyReport(Record):
    """``method`` is "exhaustive" or "skipped" (over the cap, not clean);
    ``violations`` holds (permutation, positions) witnesses."""

    __slots__ = ("clean", "method", "families_checked", "violations")

    def __init__(self, clean: bool, method: str, families_checked: int, violations: tuple = ()):
        object.__setattr__(self, "clean", clean)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "families_checked", families_checked)
        object.__setattr__(self, "violations", violations)


class BestResponseCatalog(Record):
    """``witnesses`` has one point per action: an interior belief, or for an
    action found only on a cell touching the simplex boundary a point of
    that cell outside it."""

    __slots__ = ("actions", "witnesses", "num_cells", "degeneracy", "perturbed")

    def __init__(
        self,
        actions: tuple[ActionSet, ...],
        witnesses: tuple[tuple[Fraction, ...], ...],
        num_cells: int,
        degeneracy: NondegeneracyReport,
        perturbed: bool,
    ):
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "num_cells", num_cells)
        object.__setattr__(self, "degeneracy", degeneracy)
        object.__setattr__(self, "perturbed", perturbed)


def _require_linear_matroid(instance: Instance) -> None:
    if instance.receiver.kind is not UtilityKind.LINEAR:
        raise NonLinearReceiver("receiver utility must be linear for cell analysis")
    if not isinstance(instance.constraint, MATROID_KINDS):
        raise UnsupportedCombination("best-response enumeration needs a matroid constraint")
    if instance.sense is not Sense.MAX:
        raise UnsupportedSense("best-response enumeration is for the maximization sense")


def _psi(instance: Instance) -> list[tuple[Fraction, ...]]:
    """Per-element vectors of singleton receiver values across states."""
    values = instance.receiver.linear
    n = len(instance.element_names)
    return [tuple(values[t][e] for t in range(len(instance.state_names))) for e in range(n)]


def _int_psi(instance: Instance) -> list[tuple[int, ...]]:
    """``_psi`` times the lcm of its denominators: one positive scaling of
    every entry, which changes no family's linear dependence."""
    psi = _psi(instance)
    scale = lcm(*(v.denominator for vector in psi for v in vector))
    return [tuple(v.numerator * (scale // v.denominator) for v in vector) for vector in psi]


def _pair_iter(instance: Instance):
    n = len(instance.element_names)
    constraint = instance.constraint
    if isinstance(constraint, Partition):
        for block in constraint.blocks:
            yield from combinations(sorted(block), 2)
    else:
        yield from combinations(range(n), 2)


def receiver_hyperplanes(instance: Instance) -> list[arrangement.Hyperplane]:
    """Pairwise comparison hyperplanes, one per element pair that can swap order.

    Pairs with identical singleton vectors are dropped (their comparison
    never changes sign); for partition matroids only within-block pairs
    matter, because greedy never weighs elements of different blocks
    against each other.
    """
    _require_linear_matroid(instance)
    psi = _psi(instance)
    planes = []
    for i, j in _pair_iter(instance):
        normal = tuple(a - b for a, b in zip(psi[i], psi[j]))
        if any(v != 0 for v in normal):
            planes.append(arrangement.Hyperplane(normal))
    return planes


def _independent(vectors: list[tuple[int, ...]]) -> bool:
    """Exact rank check of integer vectors: True iff the family is linearly
    independent.

    Fraction-free (Bareiss) row echelon elimination: with p a row's first
    nonzero entry, each later row a whose entry there is f becomes
    (p·a − f·row) // prev, prev being the previous pivot (1 at first).  Every
    entry is a minor of the column-permuted matrix, so each division is
    exact, and a vector reduced to zero is dependent.
    """
    m = [list(v) for v in vectors]
    prev = 1
    for r, row in enumerate(m):
        col = next((c for c, a in enumerate(row) if a), None)
        if col is None:
            return False
        p = row[col]
        for k in range(r + 1, len(m)):
            f = m[k][col]
            m[k] = [(p * a - f * b) // prev for a, b in zip(m[k], row)] if f else [p * a // prev for a in m[k]]
        prev = p
    return True


def _count_linear_forests(n: int, d: int) -> int:
    """Number of d-edge linear forests of K_n.  ``count[v][e]`` sums over the
    size m of the path through the first of v vertices (m!/2 labeled paths
    on m >= 2 vertices)."""
    count = [[int(e == 0) for e in range(d + 1)]]
    for v in range(1, n + 1):
        count.append(
            [
                sum(
                    comb(v - 1, m - 1) * (1 if m == 1 else factorial(m) // 2) * count[v - m][e - m + 1]
                    for m in range(1, min(v, e + 1) + 1)
                )
                for e in range(d + 1)
            ]
        )
    return count[n][d]


def _linear_forests(n: int, d: int):
    """Every set of d edges of K_n forming vertex-disjoint paths, lex order.

    Edges are tried in lexicographic order; an edge is refused when either
    end already has degree two or when it would close a cycle, which for a
    union of paths means joining the two ends of one path.  ``end[v]`` is the
    other end of the path that has v as an end.  (A module-level generator
    rather than a closure: a recursive closure is a reference cycle, which
    lingers until the cyclic garbage collector runs.)
    """
    return _extend_forest(list(combinations(range(n), 2)), d, 0, [0] * n, list(range(n)), [])


def _extend_forest(edges, d: int, start: int, degree: list, end: list, chosen: list):
    if len(chosen) == d:
        yield tuple(chosen)
        return
    for k in range(start, len(edges) - (d - len(chosen)) + 1):
        i, j = edges[k]
        if degree[i] == 2 or degree[j] == 2 or end[i] == j:
            continue
        a, b = end[i], end[j]
        end[a], end[b] = b, a
        degree[i] += 1
        degree[j] += 1
        chosen.append((i, j))
        yield from _extend_forest(edges, d, k + 1, degree, end, chosen)
        chosen.pop()
        degree[i] -= 1
        degree[j] -= 1
        end[a], end[b] = i, j


def _forest_permutation(n: int, forest) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A permutation holding the forest's paths one after another, and the
    positions i at which (perm[i], perm[i+1]) is a forest edge."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for i, j in forest:
        adjacent[i].append(j)
        adjacent[j].append(i)
    perm: list[int] = []
    for v in range(n):
        if v not in perm and len(adjacent[v]) < 2:  # walk each path from an end
            prev, cur = None, v
            while cur is not None:
                perm.append(cur)
                prev, cur = cur, next((w for w in adjacent[cur] if w != prev), None)
    edges = {frozenset(edge) for edge in forest}
    positions = tuple(i for i in range(n - 1) if frozenset(perm[i : i + 2]) in edges)
    return tuple(perm), positions


def check_nondegeneracy(instance: Instance) -> NondegeneracyReport:
    """Audit the consecutive-difference independence assumption.

    For a permutation pi of the elements and a set S of d = min(|states|,
    n - 1) positions, the difference vectors psi[pi[i]] - psi[pi[i+1]],
    i in S, must be linearly independent.  The pair sets these families
    range over are exactly the d-edge linear forests of the complete graph
    on the elements (concatenating the paths and the remaining elements
    gives a permutation), so the forests are enumerated directly and the
    audit is exact for every n.  Each violation is reported as a
    permutation holding the forest and the positions of its pairs.  The
    differences are taken of ``_int_psi``'s integer vectors, so every rank
    test runs in integers (``_independent``).

    When d = n - 1 every family is a Hamiltonian path, and the differences
    along any of them span the direction space of the columns' affine hull:
    one rank test decides every family (independent iff the columns are
    affinely independent, so in particular no two are equal), and a failing
    report holds that one path as its witness.
    """
    if instance.receiver.kind is not UtilityKind.LINEAR:
        raise NonLinearReceiver("non-degeneracy audit needs linear receiver utility")
    psi = _int_psi(instance)
    n = len(psi)
    d = min(len(instance.state_names), n - 1)
    diff = {
        (i, j): tuple(a - b for a, b in zip(psi[i], psi[j])) for i, j in combinations(range(n), 2)
    }
    if d == n - 1:
        path = tuple((k, k + 1) for k in range(d))
        clean = _independent([diff[edge] for edge in path])
        witness = () if clean else (_forest_permutation(n, path),)
        return NondegeneracyReport(clean, "exhaustive", _count_linear_forests(n, d), witness)
    if _count_linear_forests(n, d) > AUDIT_FAMILY_CAP:
        raise TooLarge("non-degeneracy audit has more families than allowed", AUDIT_FAMILY_CAP)
    violations = []
    checked = 0
    for forest in _linear_forests(n, d):
        checked += 1
        if not _independent([diff[edge] for edge in forest]):
            violations.append(_forest_permutation(n, forest))
    return NondegeneracyReport(not violations, "exhaustive", checked, tuple(violations))


def greedy_at_point(
    instance: Instance,
    point: tuple[Fraction, ...],
    tie_break: tuple[Fraction, ...] | None = None,
) -> ActionSet:
    """Greedy independent set for the perturbed expected weights at a belief.

    Returns the order-determined greedy base: every element that keeps the
    set independent is taken, regardless of weight sign.  At a belief in
    the open simplex this is the receiver's perturbed best response:
    receiver utilities are nonnegative and every bump is positive, so no
    weight compares below zero.  Exact ties are broken by the perturbation
    bumps at ``tie_break`` (default: the point).

    Element e carries the bump ``tie_break[e mod D] * eps^(e+1)``.  Between
    two elements e < f of equal expected weight, eps^(e+1) outweighs
    eps^(f+1), so e's bump decides unless it is zero, and then f's does.
    With s_e the sign of e's bump, the descending order of the key
    (weight, s_e, -s_e * e) is that perturbed order; elements tied in all
    three (equal weight, both bumps zero) keep ascending index.
    """
    psi = _psi(instance)
    tie_break = point if tie_break is None else tie_break
    num_states = len(point)

    def key(e: int) -> tuple:
        bump = tie_break[e % num_states]
        sign = (bump > 0) - (bump < 0)
        return sum((point[t] * psi[e][t] for t in range(num_states)), ZERO), sign, -sign * e

    order = sorted(range(len(psi)), key=key, reverse=True)
    return matroid.greedy(matroid.oracle_for(instance.constraint, len(psi)), order)


def enumerate_best_responses(instance: Instance) -> BestResponseCatalog:
    """Every action that greedy selects on some cell reaching the simplex.

    Cells are kept when their closure touches the closed simplex.  Cells
    meeting the open simplex come with a strictly interior witness and
    contribute the greedy base there, which is the receiver's exact best
    response; cells that only touch the simplex boundary contribute the greedy
    base for their weight order, which is a best response at the touching
    beliefs (the strict order refines the tie pattern that holds where the
    closure meets the simplex).  Restricting to open-simplex cells alone
    would lose actions that are optimal only on the simplex boundary, e.g.
    when two elements compare equal at a vertex.  Every cell also
    contributes its greedy base with identical elements tie-broken as the
    perturbation breaks them at each boundary belief of ``Cell.boundary``:
    there the bumps of the states with probability zero vanish, so an
    element that loses the tie inside the simplex can win it on a face.

    An instance whose non-degeneracy audit exceeds ``AUDIT_FAMILY_CAP`` is
    not audited: its report says ``skipped`` and the catalog is marked
    ``perturbed``, the caveat that holds whenever ties may matter.
    """
    _require_linear_matroid(instance)
    try:
        report = check_nondegeneracy(instance)
    except TooLarge:
        report = NondegeneracyReport(False, "skipped", 0)
    planes = receiver_hyperplanes(instance)
    num_states = len(instance.state_names)
    cells = arrangement.enumerate_cells(planes, num_states)

    interior: dict[ActionSet, tuple[Fraction, ...]] = {}
    touching: dict[ActionSet, tuple[Fraction, ...]] = {}
    for cell in cells:
        kind = interior if cell.interior else touching
        kind.setdefault(greedy_at_point(instance, cell.point), cell.point)
        for belief in cell.boundary:
            kind.setdefault(greedy_at_point(instance, cell.point, tie_break=belief), cell.point)

    found = dict(touching)
    found.update(interior)  # prefer strictly interior witnesses
    actions = tuple(sorted(found))
    return BestResponseCatalog(
        actions=actions,
        witnesses=tuple(found[a] for a in actions),
        num_cells=len(cells),
        degeneracy=report,
        perturbed=not report.clean,
    )
