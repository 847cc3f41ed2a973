"""Cell enumeration for hyperplane arrangements on the belief affine hull.

Beliefs over D states live on the affine hull {x : sum(x) == 1}; a
hyperplane ``normal . x == 0`` carves it into sign regions.  This module
enumerates the full-dimensional regions (cells) that reach the closed
probability simplex, flags whether each meets the open simplex or only
touches its boundary, and returns exact rational witnesses per cell.

Internally each hyperplane is rewritten in chart coordinates
``y = (x_2, ..., x_D)`` (with ``x_1 = 1 - sum(y)``) as an affine functional
``a . y + b``, canonicalized to a primitive integer vector so coincident
hyperplanes coalesce (opposite-scaling copies are canonicalized with a
recorded sign flip).  For one- and two-dimensional charts the cells are
found geometrically and without any LP: the simplex facets join the
functionals, and every vertex of that combined arrangement lying in the
closed simplex is probed once in each angular sector around it.  A cell
meets the open simplex iff one of its probes lands strictly inside; its
closure touches the simplex iff some probe reaches it at all, because a
vertex of the closure's intersection with the simplex is one of the probed
vertices; the probed vertices on the simplex boundary are reported as the
cell's boundary beliefs.  A probe is the vertex v stepped a rational epsilon
along a direction d inside the sector (``_step_point``), epsilon small
enough that no functional nonzero at v changes sign.  So a functional's
sign at the probe is its sign at v where that is nonzero, else the sign of
its slope a . d: the symbolic perturbation of Edelsbrunner & Muecke (1990).
Vertices are held as integers over one positive denominator, so every probe
is decided by integer signs; the rational witness is stepped only when a
probe finds a new cell, or first lands inside a touching one, and each
witness's signs are rechecked against its probe's in integers before the
walk returns.  In higher dimension a
breadth-first flood over single-sign flips of a bounding box meeting every
cell is used, certifying each candidate sign pattern with an exact
strict-feasibility LP, and each box cell is classified with
``strict_simplex_point`` and ``weak_simplex_point``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul

from . import lp
from .errors import CertificateError, DimensionTooSmall, TooLarge
from .model import Record
from .rationals import ONE, ZERO, as_fraction, over_one_denominator

DEFAULT_CELL_CAP = 100_000


class Hyperplane(Record):
    """The set {x in aff : normal . x == 0}."""

    __slots__ = ("normal",)

    def __init__(self, normal: tuple[Fraction, ...]):
        object.__setattr__(self, "normal", normal)


def make_hyperplane(normal) -> Hyperplane:
    return Hyperplane(tuple(as_fraction(v) for v in normal))


def side(plane: Hyperplane, point) -> int:
    """-1 / 0 / +1 according to which side of the plane the point lies on."""
    val = sum((n * as_fraction(p) for n, p in zip(plane.normal, point)), ZERO)
    return (val > 0) - (val < 0)


class Cell(Record):
    """One full-dimensional region: per-input-plane signs plus a witness.

    An ``interior`` cell meets the open simplex and its witness ``point`` is
    a strictly positive distribution.  A touching cell lies outside the open
    simplex and its closure meets the simplex boundary; its ``point`` lies
    outside the simplex.  ``boundary`` holds distributions on the simplex
    boundary in the cell's closure, one for each face of the simplex whose
    relative interior the closure meets (two or three states).  With four or
    more states only a touching cell carries one, found by LP.
    """

    __slots__ = ("signs", "point", "interior", "boundary")

    def __init__(
        self,
        signs: tuple[int, ...],
        point: tuple[Fraction, ...],
        interior: bool = True,
        boundary: tuple[tuple[Fraction, ...], ...] = (),
    ):
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)


def _functional(plane: Hyperplane, num_states: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Chart form a . y + b of the plane restricted to the affine hull."""
    n = plane.normal
    if len(n) != num_states:
        raise DimensionTooSmall(
            f"hyperplane normal has {len(n)} coordinates, expected {num_states}"
        )
    b = n[0]
    a = tuple(n[k] - n[0] for k in range(1, num_states))
    return a, b


def _canonical(a, b) -> tuple[tuple[int, ...], int, int] | None:
    """Primitive-integer form of a functional, or None if identically zero.

    Returns (a_int, b_int, flip) with the first nonzero entry positive and
    sign(original value) == flip * sign(canonical value) everywhere.
    """
    vals = [as_fraction(v) for v in (*a, b)]
    scale = lcm(*(v.denominator for v in vals))
    ints = [int(v * scale) for v in vals]
    g = gcd(*ints)
    if g == 0:
        return None
    ints = [v // g for v in ints]
    flip = 1
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
                flip = -1
            break
    return tuple(ints[:-1]), ints[-1], flip


def _evaluate(func: tuple, y) -> Fraction:
    a, b = func
    return sum((coef * y[j] for j, coef in enumerate(a) if coef != 0), ZERO) + b


def _simplex_context(dim: int) -> list[tuple]:
    """Facet functionals of the simplex in chart coordinates: all stay > 0."""
    out = []
    for j in range(dim):
        a = [0] * dim
        a[j] = 1
        out.append((tuple(a), 0))
    out.append((tuple([-1] * dim), 1))
    return out


def _box_context(dim: int, cutting) -> list[tuple]:
    """Bounding-box functionals large enough that every cell pokes inside.

    Any minimal face of a cell solves a square integer subsystem, so its
    coordinates are bounded by the worst Cramer ratio; a box one unit wider
    therefore meets the interior of every cell.
    """
    coef_max = 1
    for a, b in cutting:
        coef_max = max(coef_max, abs(b), *(abs(v) for v in a))
    bound = 1 + factorial(dim) * coef_max**dim
    out = []
    for j in range(dim):
        a = [0] * dim
        a[j] = 1
        out.append((tuple(a), bound))
        out.append((tuple(-v for v in a), bound))
    return out


def _vertex(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The point ``nums / den`` as integers over a positive denominator, with
    no common factor, so that equal points have equal forms."""
    g = gcd(*nums, den) * (1 if den > 0 else -1)
    return tuple(v // g for v in nums), den // g


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _ray_cmp(u, v) -> int:
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _primitive_ray(vec) -> tuple[int, int]:
    g = gcd(vec[0], vec[1])
    return (vec[0] // g, vec[1] // g)


def _step_point(vertex, direction, funcs) -> tuple[Fraction, ...]:
    """Vertex plus a rational epsilon along direction, small enough that no
    functional that is nonzero at the vertex changes sign."""
    eps = ONE
    for func in funcs:
        val = _evaluate(func, vertex)
        if val == 0:
            continue
        slope = sum(Fraction(c) * d for c, d in zip(func[0], direction))
        if slope != 0:
            cap = abs(val) / (2 * abs(slope))
            if cap < eps:
                eps = cap
    return tuple(v + eps * d for v, d in zip(vertex, direction))


def _sector_directions(rays: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """One strictly interior direction per angular sector between the rays."""
    rays = sorted(set(rays), key=cmp_to_key(_ray_cmp))
    if len(rays) == 2:
        t = rays[0]
        return [(-t[1], t[0]), (t[1], -t[0])]
    dirs = []
    for i, r in enumerate(rays):
        s = rays[(i + 1) % len(rays)]
        dirs.append((r[0] + s[0], r[1] + s[1]))
    return dirs


def _strict_point(cutting, context, signs) -> tuple[Fraction, ...] | None:
    """Interior point of the open region {sign_h * f_h > 0, context > 0}, if any.

    Finds the point maximizing the minimum signed slack, solved through the
    dual of `maximize the common slack t`: variables are one multiplier per
    functional plus one for the cap t <= 1; the dual's own duals recover
    (y, t).  Strictly feasible iff the optimum t is positive.
    """
    dim = len(context[0][0])
    funcs = [((tuple(s * c for c in a)), s * b) for (a, b), s in zip(cutting, signs)]
    funcs.extend(context)
    m = len(funcs)
    model = lp.LPModel(m + 1, sense=lp.MIN)
    model.set_objective([b for _, b in funcs] + [1])
    for j in range(dim):
        model.add_row({h: -funcs[h][0][j] for h in range(m)}, lp.EQ, 0)
    model.add_row([1] * (m + 1), lp.EQ, 1)
    res = lp.solve(model)
    if res.status != lp.OPTIMAL:
        raise CertificateError(f"strict-feasibility LP is bounded and feasible, yet ended {res.status}")
    if res.value <= 0:
        return None
    point = tuple(res.duals[:dim])
    if any(_evaluate(f, point) <= 0 for f in funcs):
        raise CertificateError("strict-feasibility witness failed recheck")
    return point


def _weak_point(rows, dim: int) -> tuple[Fraction, ...] | None:
    """Point of the closed simplex with sign * f >= 0 for every (f, sign) row."""
    model = lp.LPModel(dim)
    model.add_row([1] * dim, lp.LE, 1)
    for (a, b), s in rows:
        model.add_row([s * v for v in a], lp.GE, -s * b)
    res = lp.solve(model)
    if res.status != lp.OPTIMAL:
        return None
    point = tuple(res.x)
    if any(_evaluate(f, point) < 0 for f in _simplex_context(dim)) or any(
        s * _evaluate(f, point) < 0 for f, s in rows
    ):
        raise CertificateError("weak-feasibility witness failed recheck")
    return point


def _generic_point(dim: int, cutting, context) -> tuple[Fraction, ...]:
    """A point in the open context region avoiding every cutting hyperplane.

    Powers 1/q, 1/q^2, ... lie strictly inside both the simplex and any
    bounding box; a functional vanishing at them for every q would have to
    be identically zero.
    """
    q = 2
    while True:
        y = tuple(Fraction(1, q**k) for k in range(1, dim + 1))
        if all(_evaluate(f, y) != 0 for f in cutting):
            if any(_evaluate(f, y) <= 0 for f in context):
                raise CertificateError("generic point left the open context region")
            return y
        q += 1


def enumerate_cells(hyperplanes, num_states: int) -> list[Cell]:
    """All full-dimensional sign cells of the planes that reach the simplex.

    The cells meeting the open probability simplex come with a strictly
    positive witness; the cells whose closure touches the simplex only on its
    boundary are listed too, flagged ``interior=False`` (callers wanting the
    open simplex alone filter on ``Cell.interior``).  Returns cells in a
    deterministic order; the sign of every input hyperplane at the witness is
    reported (0 when a plane vanishes on the whole hull).
    """
    if num_states < 1:
        raise DimensionTooSmall("need at least one state")
    dim = num_states - 1

    recipes: list[tuple] = []
    cutting: list[tuple] = []
    canon_index: dict[tuple, int] = {}
    for plane in hyperplanes:
        a, b = _functional(plane, num_states)
        canon = _canonical(a, b)
        if canon is None:
            recipes.append(("zero",))
            continue
        a_int, b_int, flip = canon
        if all(v == 0 for v in a_int):
            # Constant sign over the hull; canonical b is positive.
            recipes.append(("const", flip))
            continue
        key = (a_int, b_int)
        if key not in canon_index:
            canon_index[key] = len(cutting)
            cutting.append(key)
        recipes.append(("cut", canon_index[key], flip))

    if dim == 0:
        return [Cell(_input_signs(recipes, ()), (ONE,))]

    simplex = _simplex_context(dim)
    if not cutting:
        return [_make_cell(recipes, (), _generic_point(dim, (), simplex), True, {})]

    if dim <= 2:
        found = _walk(cutting, simplex)
    else:
        found = _flood(cutting, simplex)
    return [_make_cell(recipes, key, *entry) for key, entry in sorted(found.items())]


def _walk(cutting, simplex) -> dict:
    """Cells probed around the vertices in the closed simplex (chart dim <= 2).

    Returns sign key -> [witness, witness lies in the open simplex, boundary
    vertices probed into the cell keyed by which facets are positive there].
    """
    funcs = cutting + simplex
    m, dim = len(cutting), len(simplex) - 1
    vertices: dict[tuple, None] = {}  # (numerators, denominator), first found first
    if dim == 1:
        for (a0,), b in funcs:
            vertices.setdefault(_vertex((-b,), a0))
    else:
        for (a1, b1), (a2, b2) in combinations(funcs, 2):
            # a1 . y = -b1 and a2 . y = -b2, by Cramer's rule
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det:
                vertices.setdefault(_vertex((a1[1] * b2 - b1 * a2[1], b1 * a2[0] - a1[0] * b2), det))
        # probing the edge midpoints records an edge as a boundary belief of the
        # cells whose closure holds all of it, when no plane crosses the edge
        for v in (((1, 0), 2), ((0, 1), 2), ((1, 1), 2)):
            vertices.setdefault(v)
    found: dict[tuple[int, ...], list] = {}
    for nums, den in vertices:
        if min(nums) < 0 or sum(nums) > den:
            continue  # outside the closed simplex
        vals = [sum(map(mul, a, nums)) + b * den for a, b in funcs]
        support = tuple(v > 0 for v in vals[m:])
        point = tuple(Fraction(v, den) for v in nums)
        if dim == 1:
            directions = [(1,), (-1,)]
        else:
            zero = [a for (a, _), v in zip(funcs, vals) if v == 0]
            directions = _sector_directions([_primitive_ray((s * a[1], -s * a[0])) for a in zero for s in (-1, 1)])
        for d in directions:
            # _step_point keeps every nonzero sign; a zero one takes the slope's
            signs = [_sign(v or sum(map(mul, a, d))) for (a, _), v in zip(funcs, vals)]
            key, inside = tuple(signs[:m]), min(signs[m:]) > 0
            entry = found.get(key)
            if entry is None:
                if len(found) >= DEFAULT_CELL_CAP:
                    raise TooLarge("arrangement has more cells than allowed", DEFAULT_CELL_CAP)
                entry = found[key] = [_step_point(point, d, funcs), inside, {}]
            elif inside and not entry[1]:
                entry[0], entry[1] = _step_point(point, d, funcs), True
            if not all(support):
                entry[2].setdefault(support, point)
    for key, (y, inside, _) in found.items():
        nums, den = over_one_denominator(y)
        signs = [_sign(sum(map(mul, a, nums)) + b * den) for a, b in funcs]
        if tuple(signs[:m]) != key or (min(signs[m:]) > 0) != inside:
            raise CertificateError("cell witness has other signs than its probe")
    return found


def _flood(cutting, simplex) -> dict:
    """Cells by single-sign flips from a generic seed, each flip certified by
    a strict-feasibility LP (chart dim >= 3).

    The flood runs in a box meeting every cell; the box cells are then
    classified against the simplex, in the format of ``_walk``.
    """
    dim = len(simplex[0][0])
    box = _box_context(dim, cutting)
    seed = _generic_point(dim, cutting, box)
    seed_key = tuple(_sign(_evaluate(f, seed)) for f in cutting)
    cells = {seed_key: seed}
    queue = [seed_key]
    probed: set[tuple[int, ...]] = {seed_key}
    while queue:
        key = queue.pop()
        for h in range(len(cutting)):
            flipped = key[:h] + (-key[h],) + key[h + 1 :]
            if flipped in probed:
                continue
            probed.add(flipped)
            y = _strict_point(cutting, box, flipped)  # rechecks the signs
            if y is not None:
                if len(cells) >= DEFAULT_CELL_CAP:
                    raise TooLarge("arrangement has more cells than allowed", DEFAULT_CELL_CAP)
                cells[flipped] = y
                queue.append(flipped)
    return _classify_box_cells(cutting, simplex, cells)


def _classify_box_cells(cutting, simplex, cells) -> dict:
    """Keep the box cells that meet or touch the simplex, classified by the
    ``strict_simplex_point`` and ``weak_simplex_point`` LPs."""
    num_states = len(simplex[0][0]) + 1
    # the hull plane whose chart form is the canonical functional a . y + b
    planes = [Hyperplane((Fraction(b), *(Fraction(v + b) for v in a))) for a, b in cutting]
    kept = {}
    for key, y in cells.items():
        if all(_evaluate(f, y) > 0 for f in simplex):
            kept[key] = [y, True, {}]
            continue
        inner = strict_simplex_point(key, planes, num_states)
        if inner is not None:
            kept[key] = [inner[1:], True, {}]
            continue
        weak = weak_simplex_point(key, planes, num_states)
        if weak is not None:
            kept[key] = [y, False, {None: weak[1:]}]
    return kept


def _sign_rows(planes, signs, num_states: int, weak: bool = False):
    """(canonical functional, required sign) rows of a sign pattern.

    Returns None when no point of the hull can satisfy the pattern strictly:
    a plane vanishing on the hull has no strict side, a constant plane only
    its own, and a repeated plane only one sign.  With ``weak`` the pattern
    is read as non-strict, so a vanishing plane imposes nothing and opposite
    signs on one plane confine the point to it.
    """
    rows: list[tuple[tuple, int]] = []
    for plane, want in zip(planes, signs):
        if want not in (1, -1):
            raise DimensionTooSmall(f"sign must be +1 or -1, got {want!r}")
        canon = _canonical(*_functional(plane, num_states))
        if canon is None:
            if weak:
                continue
            return None
        a_int, b_int, flip = canon
        row = ((a_int, b_int), want * flip)
        if all(v == 0 for v in a_int):
            if row[1] != 1:  # canonical constant value is positive
                return None
            continue
        if row in rows:
            continue
        if not weak and (row[0], -row[1]) in rows:
            return None
        rows.append(row)
    return rows


def _strict_lift(rows, dim: int, box: bool) -> tuple[Fraction, ...] | None:
    """Strict point of the sign rows in a bounding box or in the simplex."""
    if rows is None:
        return None
    if dim == 0:
        return (ONE,)
    cutting = [f for f, _ in rows]
    context = _box_context(dim, cutting) if box else _simplex_context(dim)
    if not cutting:
        return _lift(_generic_point(dim, (), context))
    y = _strict_point(cutting, context, [s for _, s in rows])
    return None if y is None else _lift(y)


def interior_point(signs, hyperplanes, num_states: int | None = None):
    """Point of the belief hull strictly on the required side of each plane.

    ``signs`` assigns +1/-1 per hyperplane.  Maximizes the minimum signed
    slack within a bounding box (no simplex restriction; callers filter).
    Returns the point, or None when no strictly feasible point exists.
    """
    planes = list(hyperplanes)
    if num_states is None:
        if not planes:
            raise DimensionTooSmall("cannot infer dimension without hyperplanes")
        num_states = len(planes[0].normal)
    rows = _sign_rows(planes, signs, num_states)
    return _strict_lift(rows, num_states - 1, box=True)


def strict_simplex_point(signs, hyperplanes, num_states: int):
    """Like ``interior_point`` but also strictly inside the simplex.

    Returns a strictly positive distribution on the required strict side of
    every plane, or None when the cell does not meet the open simplex.
    """
    rows = _sign_rows(list(hyperplanes), signs, num_states)
    return _strict_lift(rows, num_states - 1, box=False)


def weak_simplex_point(signs, hyperplanes, num_states: int):
    """Point of the closed simplex weakly on the required side of each plane.

    Certifies that the closure of a sign cell touches the simplex (possibly
    only on its boundary).  Returns such a distribution, or None.
    """
    rows = _sign_rows(list(hyperplanes), signs, num_states, weak=True)
    if rows is None:
        return None
    if num_states == 1:
        return (ONE,)
    y = _weak_point(rows, num_states - 1)
    return None if y is None else _lift(y)


def _lift(y) -> tuple[Fraction, ...]:
    return (ONE - sum(y, ZERO),) + tuple(y)


def _make_cell(recipes, canon_signs, y, interior: bool, boundary: dict) -> Cell:
    points = tuple(_lift(v) for _, v in sorted(boundary.items()))
    return Cell(_input_signs(recipes, canon_signs), _lift(y), interior, points)


def _input_signs(recipes, canon_signs) -> tuple[int, ...]:
    out = []
    for recipe in recipes:
        if recipe[0] == "zero":
            out.append(0)
        elif recipe[0] == "const":
            out.append(recipe[1])
        else:
            out.append(recipe[2] * canon_signs[recipe[1]])
    return tuple(out)
