"""Best-response catalog vs. independent sweep/LP oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from combisig import best_response, jsonio, persuasion
from combisig.errors import (
    NonLinearReceiver,
    TooLarge,
    UnsupportedCombination,
    UnsupportedSense,
)
from combisig.model import (
    Graphic,
    Instance,
    Partition,
    PathGraph,
    Sense,
    Uniform,
    UtilitySpec,
)
from helpers import (
    brute_weak_optimal_actions,
    lex_weights_order,
    nondegeneracy_by_permutations,
    rand_clean_instance,
    rand_instance,
    replace_fields,
    sweep_weak_optimal_2state,
    wide_uniform_instance,
)

F = Fraction


def load_demo():
    return jsonio.instance_from_json(jsonio.load_json("instances/weather_pair.json"))


def test_demo_catalog_three_actions_six_cells():
    catalog = best_response.enumerate_best_responses(load_demo())
    assert catalog.actions == ((0, 1), (0, 2), (1, 2))
    assert catalog.num_cells == 6
    assert catalog.degeneracy.clean
    assert not catalog.perturbed
    assert len(catalog.witnesses) == len(catalog.actions)


def test_demo_witnesses_are_interior():
    catalog = best_response.enumerate_best_responses(load_demo())
    for witness in catalog.witnesses:
        assert sum(witness) == 1
        assert all(x > 0 for x in witness)


def test_catalog_equals_sweep_oracle_two_states():
    rng = random.Random(31337)
    for trial in range(12):
        kind = ("uniform", "partition", "graphic")[trial % 3]
        inst = rand_clean_instance(rng, 2, rng.randint(3, 6), kind)
        catalog = set(best_response.enumerate_best_responses(inst).actions)
        swept = sweep_weak_optimal_2state(inst)
        assert swept == catalog, f"trial {trial}"


def test_catalog_covers_lp_weak_optima_three_states():
    rng = random.Random(90210)
    for trial in range(6):
        kind = ("uniform", "partition", "graphic")[trial % 3]
        inst = rand_clean_instance(rng, 3, rng.randint(3, 6), kind)
        catalog = set(best_response.enumerate_best_responses(inst).actions)
        winners = brute_weak_optimal_actions(inst)
        assert winners <= catalog, f"trial {trial}"


def test_vertex_only_best_response_is_cataloged():
    """Element 0 is weakly optimal only at one simplex vertex; the catalog
    still lists it, and the reduced LP keeps full-LP optimality."""
    inst = Instance(
        state_names=("s0", "s1", "s2"),
        prior=(F(1, 3), F(1, 3), F(1, 3)),
        element_names=("a", "b"),
        sender=UtilitySpec.from_linear([[9, 0], [9, 0], [9, 0]]),
        receiver=UtilitySpec.from_linear([[5, 8], [7, 7], [0, 6]]),
        constraint=Uniform(1),
    )
    catalog = best_response.enumerate_best_responses(inst)
    assert (0,) in catalog.actions and (1,) in catalog.actions
    full = persuasion.solve_full(inst)
    red = persuasion.solve_reduced(inst)
    assert full.sender_value == red.sender_value == 3


def test_partition_reduced_family_matches_full_family(monkeypatch):
    rng = random.Random(55)
    for _ in range(6):
        inst = rand_clean_instance(rng, 3, 6, "partition")
        reduced_catalog = best_response.enumerate_best_responses(inst).actions

        def full_pairs(instance):
            return combinations(range(len(instance.element_names)), 2)

        monkeypatch.setattr(best_response, "_pair_iter", full_pairs)
        full_catalog = best_response.enumerate_best_responses(inst).actions
        monkeypatch.undo()
        assert reduced_catalog == full_catalog


def test_nondegeneracy_flags_duplicate_columns():
    two_states = Instance(
        state_names=("s0", "s1"),
        prior=(F(1, 2), F(1, 2)),
        element_names=("a", "b", "c"),
        sender=UtilitySpec.from_linear([[1, 1, 1], [1, 1, 1]]),
        receiver=UtilitySpec.from_linear([[4, 4, 1], [2, 2, 7]]),
        constraint=Uniform(2),
    )
    # e0 = e2 = (1, 0, 1): with no more elements than states the audited
    # families are the three Hamiltonian paths, all decided by one rank test
    three_states = Instance(
        state_names=("s0", "s1", "s2"),
        prior=(F(1, 3), F(1, 3), F(1, 3)),
        element_names=("a", "b", "c"),
        sender=UtilitySpec.from_linear([[1, 2, 3], [1, 2, 3], [1, 2, 3]]),
        receiver=UtilitySpec.from_linear([[1, 0, 1], [0, 2, 0], [1, 0, 1]]),
        constraint=Uniform(1),
    )
    for inst in (two_states, three_states):
        report = best_response.check_nondegeneracy(inst)
        assert not report.clean
        assert report.violations
        catalog = best_response.enumerate_best_responses(inst)
        assert catalog.perturbed
    assert best_response.check_nondegeneracy(three_states).families_checked == 3


def test_nondegeneracy_vacuous_for_tiny_instances():
    inst = Instance(
        state_names=("s0", "s1", "s2"),
        prior=(F(1, 3), F(1, 3), F(1, 3)),
        element_names=("a",),
        sender=UtilitySpec.from_linear([[1], [1], [1]]),
        receiver=UtilitySpec.from_linear([[1], [2], [3]]),
        constraint=Uniform(1),
    )
    # one element: the only family is the empty forest, trivially independent
    report = best_response.check_nondegeneracy(inst)
    assert report.clean and report.method == "exhaustive"
    assert report.families_checked == 1


def test_nondegeneracy_exact_beyond_seven_elements(monkeypatch):
    """n = 8, D = 2: every two element pairs form a linear forest, so all
    C(28, 2) families are audited and exactly the parallel pairs are found."""
    first = [F(e + 1) for e in range(8)]
    second = [F(2**e) for e in range(7)] + [F(65)]  # 6-7 parallels 0-1
    inst = Instance(
        state_names=("s0", "s1"),
        prior=(F(1, 2), F(1, 2)),
        element_names=tuple(f"e{i}" for i in range(8)),
        sender=UtilitySpec.from_linear([[1] * 8, [1] * 8]),
        receiver=UtilitySpec.from_linear([first, second]),
        constraint=Uniform(3),
    )
    report = best_response.check_nondegeneracy(inst)
    assert report.method == "exhaustive"
    assert report.families_checked == 378

    def diff(i, j):
        return (first[i] - first[j], second[i] - second[j])

    pairs = list(combinations(range(8), 2))
    parallel = {
        frozenset((p, q))
        for p, q in combinations(pairs, 2)
        if diff(*p)[0] * diff(*q)[1] == diff(*p)[1] * diff(*q)[0]
    }
    # 0-1 = 6-7 as vectors, hence also 0-6 = 1-7
    assert parallel == {frozenset(((0, 1), (6, 7))), frozenset(((0, 6), (1, 7)))}
    reported = set()
    for perm, positions in report.violations:
        assert len(positions) == 2
        reported.add(frozenset(tuple(sorted(perm[i : i + 2])) for i in positions))
    assert reported == parallel
    assert not report.clean
    monkeypatch.setattr(best_response, "AUDIT_FAMILY_CAP", 377)
    with pytest.raises(TooLarge):
        best_response.check_nondegeneracy(inst)


def test_catalog_falls_back_past_the_audit_cap():
    """21 elements, 3 states: too many actions to enumerate and too many
    linear forests to audit, so the catalog skips the audit, reports the
    perturbed caveat, and its scheme passes the exact persuasiveness audit."""
    inst = wide_uniform_instance()
    with pytest.raises(TooLarge):
        persuasion.enumerate_actions(inst.constraint, inst.num_elements)
    with pytest.raises(TooLarge):
        best_response.check_nondegeneracy(inst)
    catalog = best_response.enumerate_best_responses(inst)
    assert catalog.perturbed and catalog.degeneracy.method == "skipped"
    assert not catalog.degeneracy.clean and catalog.degeneracy.families_checked == 0
    result = persuasion.solve_reduced(inst)
    assert result.lp_stats["perturbed"]
    report = persuasion.check_persuasive(inst, result.scheme)
    assert report.persuasive


def test_face_tie_break_keeps_boundary_best_response():
    """e2 and e3 have identical receiver columns.  Inside the simplex e2 wins
    their tie, but on the face x2 = 0 only e3 keeps its perturbation bump, so
    (0, 1, 3, 4) is the perturbed best response there."""
    rows = [[3, 2, 2, 2, 1], [3, 3, 2, 2, 2], [2, 2, 2, 2, 2]]
    inst = Instance(
        state_names=("s0", "s1", "s2"),
        prior=(F(1, 3),) * 3,
        element_names=tuple(f"e{i}" for i in range(5)),
        sender=UtilitySpec.from_linear(rows),
        receiver=UtilitySpec.from_linear(rows),
        constraint=Graphic(5, ((0, 1), (0, 2), (0, 4), (2, 4), (3, 4))),
    )
    face = (F(1, 2), F(1, 2), F(0))
    assert best_response.greedy_at_point(inst, face) == (0, 1, 3, 4)
    assert best_response.greedy_at_point(inst, (F(1, 3),) * 3) != (0, 1, 3, 4)
    catalog = best_response.enumerate_best_responses(inst)
    assert catalog.perturbed
    assert catalog.actions == ((0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))


def test_nondegeneracy_matches_permutation_walk():
    rng = random.Random(7070)
    degenerate = 0
    for trial in range(24):
        n_states = 1 + trial % 3
        n = rng.randint(2, 7 if n_states < 3 else 6)
        inst = rand_instance(rng, n_states, n, "uniform", lo=0, hi=rng.choice((2, 9)))
        report = best_response.check_nondegeneracy(inst)
        clean, checked = nondegeneracy_by_permutations(inst)
        assert (report.clean, report.families_checked) == (clean, checked), trial
        assert report.method == "exhaustive"
        degenerate += not clean
        for perm, positions in report.violations:
            assert sorted(perm) == list(range(n)) and len(positions) == min(n_states, n - 1)
    assert degenerate >= 3


def test_guards():
    demo = load_demo()
    tab = UtilitySpec.from_tabular(
        [{(): F(0), (0,): F(1)}, {(): F(0), (0,): F(2)}]
    )
    bad = Instance(
        state_names=("s0", "s1"),
        prior=(F(1, 2), F(1, 2)),
        element_names=("a",),
        sender=UtilitySpec.from_linear([[1], [1]]),
        receiver=tab,
        constraint=Uniform(1),
    )
    with pytest.raises(NonLinearReceiver):
        best_response.enumerate_best_responses(bad)
    path_inst = Instance(
        state_names=("s0", "s1"),
        prior=(F(1, 2), F(1, 2)),
        element_names=("e0", "e1"),
        sender=UtilitySpec.from_linear([[1, 0], [0, 1]]),
        receiver=UtilitySpec.from_linear([[1, 2], [2, 1]]),
        constraint=PathGraph(2, ((0, 1), (0, 1)), 0, 1),
    )
    with pytest.raises(UnsupportedCombination):
        best_response.enumerate_best_responses(path_inst)
    assert demo is not None


def test_greedy_at_point_matches_brute_best_response():
    rng = random.Random(11)
    for _ in range(10):
        inst = rand_clean_instance(rng, 3, 5, "uniform")
        point = (F(1, 5), F(2, 5), F(2, 5))
        greedy = best_response.greedy_at_point(inst, point)
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        r = inst.receiver.value

        def val(S):
            return sum((point[t] * r(t, S) for t in range(3)), start=F(0))

        best = max(val(S) for S in actions)
        assert val(greedy) == best


def _belief(rng, num_states, where):
    """A point inside the simplex, on one of its faces, or off it (some
    coordinate negative, sum not 1)."""
    point = [F(rng.randint(1, 5)) for _ in range(num_states)]
    if where == "face":
        for t in rng.sample(range(num_states), rng.randint(1, num_states - 1)):
            point[t] = F(0)
    elif where == "outside":
        point[rng.randrange(num_states)] = F(-rng.randint(1, 5))
        return tuple(point)
    total = sum(point)
    return tuple(p / total for p in point)


def test_greedy_at_point_orders_like_lexicographic_bumps():
    """greedy_at_point's element order equals the eps-tuple order of
    tests/helpers.lex_weights_order.  Under Uniform(k) greedy returns the
    first k elements of its order, so k = 1..n pins the whole order.  The
    point and the tie-break belief each lie inside the simplex, on a face
    or off it; utilities 0-2 make ties common."""
    rng = random.Random(1971)
    places = ("inside", "face", "outside")
    for trial in range(180):
        num_states = rng.choice([2, 3, 4])
        inst = rand_instance(rng, num_states, rng.randint(2, 7), "uniform", lo=0, hi=2)
        point = _belief(rng, num_states, places[trial % 3])
        tie_break = _belief(rng, num_states, places[trial // 3 % 3])
        psi = list(zip(*inst.receiver.linear))
        want = lex_weights_order(psi, point, tie_break)
        for k in range(1, inst.num_elements + 1):
            uniform = replace_fields(inst, constraint=Uniform(k))
            got = best_response.greedy_at_point(uniform, point, tie_break)
            assert got == tuple(sorted(want[:k])), f"trial {trial}, k={k}"
