"""Cell enumeration over the belief hull vs. random-point sampling."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from combisig import arrangement, lp
from combisig.errors import CertificateError, DimensionTooSmall
from helpers import fraction_walk

F = Fraction


def rand_planes(rng, m, num_states, coef=5):
    planes = []
    for _ in range(m):
        while True:
            normal = tuple(F(rng.randint(-coef, coef)) for _ in range(num_states))
            if any(v != 0 for v in normal):
                break
        planes.append(arrangement.make_hyperplane(normal))
    return planes


def rand_simplex_point(rng, num_states, denom=9973):
    cuts = sorted(rng.randint(0, denom) for _ in range(num_states - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(denom - prev)
    return tuple(F(p, denom) for p in parts)


def signs_at(planes, point):
    out = []
    for plane in planes:
        v = sum(a * x for a, x in zip(plane.normal, point))
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


def test_single_state_dimension_zero():
    planes = rand_planes(random.Random(0), 3, 1)
    cells = arrangement.enumerate_cells(planes, 1)
    assert len(cells) == 1
    assert cells[0].point == (F(1),)


def test_zero_states_rejected():
    with pytest.raises(DimensionTooSmall):
        arrangement.enumerate_cells([], 0)


def test_no_planes_single_cell():
    cells = arrangement.enumerate_cells([], 3)
    assert len(cells) == 1
    assert sum(cells[0].point) == 1


def test_coincident_planes_share_sign_up_to_flip():
    a = arrangement.make_hyperplane((F(2), F(-2), F(0)))
    b = arrangement.make_hyperplane((F(-3), F(3), F(0)))  # same plane, flipped
    cells = arrangement.enumerate_cells([a, b], 3)
    assert len(cells) == 2
    for cell in cells:
        assert cell.signs[0] == -cell.signs[1]


def test_plane_vanishing_on_hull_reports_zero():
    # normal (1,1,1) is identically 1 on the hull: constant positive sign
    const = arrangement.make_hyperplane((F(1), F(1), F(1)))
    cut = arrangement.make_hyperplane((F(1), F(-1), F(0)))
    cells = arrangement.enumerate_cells([const, cut], 3)
    assert len(cells) == 2
    assert all(cell.signs[0] == 1 for cell in cells)
    zero = arrangement.make_hyperplane((F(0), F(0), F(0)))
    cells = arrangement.enumerate_cells([zero], 3)
    assert len(cells) == 1 and cells[0].signs == (0,)


def test_three_concurrent_lines_six_cells():
    # pairwise differences of the bundled demo utilities: concurrent at center
    planes = [
        arrangement.make_hyperplane((F(5), F(-5), F(0))),
        arrangement.make_hyperplane((F(4), F(-1), F(-3))),
        arrangement.make_hyperplane((F(-1), F(4), F(-3))),
    ]
    cells = arrangement.enumerate_cells(planes, 3)
    assert len(cells) == 6
    assert all(0 not in cell.signs for cell in cells)


def test_cells_match_sampling_small():
    """Every sampled strict sign vector appears among the enumerated cells,
    and witnesses reproduce their own sign vectors (strictly)."""
    rng = random.Random(424242)
    for trial in range(25):
        num_states = rng.randint(2, 4)
        m = rng.randint(1, 6)
        planes = rand_planes(rng, m, num_states)
        cells = [c for c in arrangement.enumerate_cells(planes, num_states) if c.interior]
        listed = {cell.signs for cell in cells}
        # size bound: cells in dimension d cut by m planes
        d = num_states - 1
        assert len(listed) <= sum(math.comb(m, i) for i in range(d + 1))
        for cell in cells:
            assert signs_at(planes, cell.point) == cell.signs
            assert all(x > 0 for x in cell.point) and sum(cell.point) == 1
        for _ in range(300):
            pt = rand_simplex_point(rng, num_states)
            signs = signs_at(planes, pt)
            if 0 in signs:
                continue
            assert signs in listed, f"trial {trial}: missed {signs}"


def test_unrestricted_mode_covers_outside_simplex():
    # A plane crossing the simplex splits it: both sides are interior cells.
    plane = arrangement.make_hyperplane((F(1), F(1), F(-9)))
    closed = arrangement.enumerate_cells([plane], 3)
    assert {(cell.signs, cell.interior) for cell in closed} == {((1,), True), ((-1,), True)}
    # x2 = 0 only bounds the simplex: its negative side touches the edge and
    # is listed as a touching cell, with a witness outside the simplex.
    edge = arrangement.make_hyperplane((F(0), F(0), F(1)))
    closed = arrangement.enumerate_cells([edge], 3)
    assert [(cell.signs, cell.interior) for cell in closed] == [((-1,), False), ((1,), True)]
    assert closed[0].point[2] < 0 and sum(closed[0].point) == 1
    # its closure meets the edge x2 = 0 and the corners x0 = 1 and x1 = 1
    supports = {tuple(x > 0 for x in b) for b in closed[0].boundary}
    assert supports == {(True, True, False), (True, False, False), (False, True, False)}


def test_interior_point_lookup():
    planes = [
        arrangement.make_hyperplane((F(1), F(-1), F(0))),
        arrangement.make_hyperplane((F(0), F(1), F(-1))),
    ]
    point = arrangement.strict_simplex_point((1, 1), planes, 3)
    assert point is not None
    assert signs_at(planes, point) == (1, 1)
    assert arrangement.strict_simplex_point((1, 1, 1), planes + [
        arrangement.make_hyperplane((F(-1), F(0), F(1)))
    ], 3) is None  # x>y>z>x is impossible


def test_weak_simplex_point_touches_boundary():
    # strict cell x0>x1 with the extra plane x2=0 active only at the boundary
    planes = [
        arrangement.make_hyperplane((F(1), F(-1), F(0))),
        arrangement.make_hyperplane((F(0), F(0), F(1))),
    ]
    # signs (+,-): x0 > x1 and x2 < 0 never holds inside, but its closure
    # touches the simplex on the x2=0 edge
    assert arrangement.strict_simplex_point((1, -1), planes, 3) is None
    weak = arrangement.weak_simplex_point((1, -1), planes, 3)
    assert weak is not None
    assert sum(weak) == 1 and all(x >= 0 for x in weak)


def lp_reference_cells(planes, num_states):
    """Closed-simplex cells by LP, over every strict sign vector:
    {signs: interior} for the sign vectors whose cell exists and reaches the
    closed simplex."""
    out = {}
    for signs in itertools.product((1, -1), repeat=len(planes)):
        if arrangement.interior_point(signs, planes, num_states) is None:
            continue
        if arrangement.strict_simplex_point(signs, planes, num_states) is not None:
            out[signs] = True
        elif arrangement.weak_simplex_point(signs, planes, num_states) is not None:
            out[signs] = False
    return out


def assert_closed_mode_matches_lp(planes, num_states):
    cells = arrangement.enumerate_cells(planes, num_states)
    assert {cell.signs: cell.interior for cell in cells} == lp_reference_cells(planes, num_states)
    for cell in cells:
        assert signs_at(planes, cell.point) == cell.signs and sum(cell.point) == 1
        assert cell.interior == all(x > 0 for x in cell.point)
        assert cell.interior or cell.boundary
        supports = set()
        for belief in cell.boundary:
            # a boundary belief lies on the cell's closure, one per face
            assert sum(belief) == 1 and min(belief) == 0
            assert all(s * v >= 0 for s, v in zip(cell.signs, signs_at(planes, belief)))
            supports.add(tuple(x > 0 for x in belief))
        assert len(supports) == len(cell.boundary)
    return cells


def test_closed_simplex_cells_match_lp_classification():
    rng = random.Random(8086)
    for trial in range(12):
        num_states = 2 + trial % 2  # chart dimensions one and two
        planes = rand_planes(rng, rng.randint(1, 6), num_states, coef=3)
        assert_closed_mode_matches_lp(planes, num_states)


def test_closed_simplex_hand_built_cases():
    # three lines concurrent at the corner x0 = 1: x1 = 0 bounds the simplex,
    # x1 = x2 and x1 = 2 x2 cut it; four cells meet it only at that corner
    corner = [
        arrangement.make_hyperplane((F(0), F(1), F(0))),
        arrangement.make_hyperplane((F(0), F(1), F(-1))),
        arrangement.make_hyperplane((F(0), F(1), F(-2))),
    ]
    cells = assert_closed_mode_matches_lp(corner, 3)
    assert sum(cell.interior for cell in cells) == 3
    assert sum(not cell.interior for cell in cells) == 3
    # x0 + x1 = 0 touches the simplex only at the vertex x2 = 1; on the hull
    # -2 x0 - 2 x1 - x2 = 0 is x2 = 2, which misses the simplex
    vertex = [arrangement.make_hyperplane((F(1), F(1), F(0)))]
    cells = assert_closed_mode_matches_lp(vertex, 3)
    assert {(cell.signs, cell.interior) for cell in cells} == {((-1,), False), ((1,), True)}
    far = [arrangement.make_hyperplane((F(-2), F(-2), F(-1)))]
    assert [cell.signs for cell in assert_closed_mode_matches_lp(far, 3)] == [(-1,)]
    # one dimension: x1 = 0 at the endpoint, x0 = 3 x1 inside
    cells = assert_closed_mode_matches_lp(
        [arrangement.make_hyperplane((F(0), F(1))), arrangement.make_hyperplane((F(1), F(-3)))], 2
    )
    assert sum(not cell.interior for cell in cells) == 1


def test_forged_lp_result_raises_certificate_error(monkeypatch):
    planes = [arrangement.make_hyperplane((F(1), F(-1), F(0)))]
    forged = lp.LPResult(status=lp.OPTIMAL, value=F(1), duals=[F(-5)] * 4)
    monkeypatch.setattr(arrangement.lp, "solve", lambda model: forged)
    with pytest.raises(CertificateError):
        arrangement.strict_simplex_point((1,), planes, 3)
    monkeypatch.setattr(arrangement.lp, "solve", lambda model: lp.LPResult(status=lp.UNBOUNDED))
    with pytest.raises(CertificateError):
        arrangement.strict_simplex_point((1,), planes, 3)


def tangled_planes(rng, num_states):
    """Random planes with small coefficients, among them repeats, copies
    scaled by a negative or fractional factor, planes through a corner of
    the simplex, and planes through the meeting point of two earlier ones."""
    planes = rand_planes(rng, rng.randint(1, 4), num_states, coef=3)
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        base = rng.choice(planes).normal
        if kind < 0.25:
            normal = base
        elif kind < 0.5:
            normal = tuple(rng.choice((-2, -1, F(1, 3), F(-3, 2))) * v for v in base)
        elif kind < 0.7:
            corner = rng.randrange(num_states)
            normal = tuple(F(0) if t == corner else F(rng.randint(-3, 3)) for t in range(num_states))
        else:
            other = rng.choice(planes).normal
            k1, k2 = rng.choice((-2, -1, 1, 2)), rng.choice((-1, 1, 3))
            normal = tuple(k1 * u + k2 * v for u, v in zip(base, other))
        if any(v != 0 for v in normal):
            planes.append(arrangement.make_hyperplane(normal))
    rng.shuffle(planes)
    return planes


def test_integer_walk_matches_the_fraction_reference(monkeypatch):
    """On random two- and three-state arrangements with repeated,
    opposite-scaled and vertex-crossing planes, ``enumerate_cells`` returns
    the cells of the ``Fraction`` probe walk: the same signs, witnesses,
    interior flags and boundary beliefs, in the same order."""
    rng = random.Random(1990)
    cells = touching = 0
    for _ in range(200):
        num_states = rng.choice((2, 3, 3))
        planes = tangled_planes(rng, num_states)
        got = arrangement.enumerate_cells(planes, num_states)
        with monkeypatch.context() as patch:
            patch.setattr(arrangement, "_walk", fraction_walk)
            want = arrangement.enumerate_cells(planes, num_states)
        assert got == want
        cells += len(got)
        touching += sum(not cell.interior for cell in got)
    assert cells >= 800 and touching >= 100, (cells, touching)
