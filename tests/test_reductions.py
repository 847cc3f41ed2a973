"""Hardness-construction generators: exact weight formulas, counts, and the
known-solution schemes' guarantees, all re-derived by hand in the tests."""

import random
from fractions import Fraction

import pytest

from combisig import cce, matroid, paths, persuasion, reductions
from combisig.errors import MissingSolution, ParameterError, PriorDegenerate
from combisig.model import Posterior, Sense, expected_value
from combisig.persuasion import check_persuasive, expected_sender_value

F = Fraction


def demo_spec():
    # 2 equations, 3 binary variables, satisfied exactly by (1, 0, 1)
    return reductions.LineqMaSpec.make(
        A=[[F(1, 2), F(-1, 4), F(0)], [F(0), F(1, 2), F(1, 2)]],
        c=[F(1, 2), F(1, 2)],
        zeta=F(0),
        delta=F(0),
        known_solution=(1, 0, 1),
    )


def rand_spec(rng, n_var=4, n_eq=2, solved=True):
    A = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_var)] for _ in range(n_eq)]
    x = [rng.randint(0, 1) for _ in range(n_var)]
    if solved:
        c = [sum((row[j] * x[j] for j in range(n_var)), start=F(0)) for row in A]
    else:
        c = [F(rng.randint(-4, 4)) for _ in range(n_eq)]
        x = None
    return reductions.LineqMaSpec.make(A=A, c=c, zeta=F(0), delta=F(0), known_solution=x)


# ---------------------------------------------------------------------------
# spec validation and normalization
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ParameterError):
        reductions.LineqMaSpec.make(A=[[1, 2], [3]], c=[1, 1], zeta=0, delta=0)  # ragged
    with pytest.raises(ParameterError):
        reductions.LineqMaSpec.make(A=[[1, 2]], c=[1, 1], zeta=0, delta=0)  # c length
    with pytest.raises(ParameterError):
        reductions.LineqMaSpec.make(A=[[1, 2]], c=[1], zeta=F(3, 4), delta=F(1, 2))
    with pytest.raises(ParameterError):
        reductions.LineqMaSpec.make(
            A=[[1, 2]], c=[1], zeta=0, delta=0, known_solution=(2, 0)
        )


def test_normalization_formula():
    spec = demo_spec()
    tau, a_bar, c_bar = reductions.normalization(spec)
    # tau = 2 * max(max |A|, max |c|, n_var^2) = 2 * max(1/2, 1/2, 9)
    assert tau == 18
    assert a_bar[0][1] == F(-1, 4) / 18
    assert c_bar == (F(1, 2) / 324, F(1, 2) / 324)
    # normalized magnitudes small enough for strictly positive weights
    assert all(abs(v) < F(1, 2) for row in a_bar for v in row)
    assert all(abs(v) < F(1, 2) for v in c_bar)


def test_prior_layout():
    spec = demo_spec()
    inst = reductions.gen_uniform_from_lineq(spec)
    n = spec.n_var
    assert inst.state_names[0] == "bg"
    assert inst.prior[0] == F(n - 1, n)
    assert all(p == F(1, n * n) for p in inst.prior[1:])
    assert sum(inst.prior) == 1
    with pytest.raises(PriorDegenerate):
        reductions.gen_uniform_from_lineq(
            reductions.LineqMaSpec.make(A=[[1]], c=[1], zeta=0, delta=0)
        )


def test_uniform_weights_by_hand():
    spec = demo_spec()
    inst = reductions.gen_uniform_from_lineq(spec)
    tau, a_bar, c_bar = reductions.normalization(spec)
    w = inst.receiver.value
    # background state: (1, 1 + c_bar_t, 1 - c_bar_t) per equation
    for t in range(spec.n_eq):
        assert w(0, (3 * t,)) == 1
        assert w(0, (3 * t + 1,)) == 1 + c_bar[t]
        assert w(0, (3 * t + 2,)) == 1 - c_bar[t]
    # variable state theta: (1, 1 - a_bar + c_bar, 1 + a_bar - c_bar)
    for theta in range(1, spec.n_var + 1):
        for t in range(spec.n_eq):
            a = a_bar[t][theta - 1]
            assert w(theta, (3 * t + 1,)) == 1 - a + c_bar[t]
            assert w(theta, (3 * t + 2,)) == 1 + a - c_bar[t]
    # sender: 1/n_eq on every keep slot, zero elsewhere
    s = inst.sender.value
    assert s(0, (0,)) == F(1, 2) and s(0, (1,)) == 0
    assert inst.constraint.k == spec.n_eq


def test_generated_weights_nonnegative_everywhere():
    rng = random.Random(41)
    for _ in range(10):
        spec = rand_spec(rng, n_var=rng.randint(2, 5), n_eq=rng.randint(1, 3), solved=False)
        for gen in (
            reductions.gen_uniform_from_lineq,
            reductions.gen_graphic_from_lineq,
            reductions.gen_path_from_lineq,
        ):
            inst = gen(spec)  # Instance validation rejects negatives
            assert inst.num_states == spec.n_var + 1


def test_graphic_gadget_structure():
    spec = demo_spec()
    inst = reductions.gen_graphic_from_lineq(spec)
    assert inst.num_elements == 6 * spec.n_eq
    big = reductions.gadget_edge_scale(spec)
    w = inst.receiver.value
    for t in range(spec.n_eq):
        base = 6 * t
        # edge order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3):
        # keep, plus, minus, BIG, plus, minus
        assert w(0, (base + 3,)) == big
        assert w(0, (base + 1,)) == w(0, (base + 4,))  # both plus copies
        assert w(0, (base + 2,)) == w(0, (base + 5,))  # both minus copies
        # the big edge strictly dominates everything else in every state
        for theta in range(inst.num_states):
            for j in (0, 1, 2, 4, 5):
                assert w(theta, (base + j,)) < big
    # 16 spanning trees per K4 gadget: maximal forests on one gadget
    oracle = matroid.oracle_for(inst.constraint, inst.num_elements)
    from itertools import combinations

    first_gadget_trees = [
        S for S in combinations(range(6), 3) if oracle.is_independent(S)
    ]
    assert len(first_gadget_trees) == 16


def test_graphic_big_edge_always_chosen():
    spec = demo_spec()
    inst = reductions.gen_graphic_from_lineq(spec)
    rng = random.Random(3)
    for _ in range(5):
        weights = [rng.randint(1, 5) for _ in range(inst.num_states)]
        total = sum(weights)
        xi = tuple(F(v, total) for v in weights)
        expected_weights = [
            sum((xi[t] * inst.receiver.value(t, (e,)) for t in range(inst.num_states)), start=F(0))
            for e in range(inst.num_elements)
        ]
        base = matroid.max_weight_action(inst.constraint, expected_weights, Sense.MAX)
        for t in range(spec.n_eq):
            assert 6 * t + 3 in base  # the dominating (1,2)-edge of each gadget


def test_path_layout_and_counts():
    spec = demo_spec()
    inst = reductions.gen_path_from_lineq(spec)
    assert inst.sense is Sense.MIN
    found = paths.enumerate_paths(inst.constraint, 10_000)
    assert len(found) == 3**spec.n_eq
    for path in found:
        assert len(path) == 2 * spec.n_eq  # one in-edge and one out-edge per layer
    # out-edges are free for the receiver and the sender taxes plus/minus in-edges
    w, s = inst.receiver.value, inst.sender.value
    for t in range(spec.n_eq):
        base = 6 * t
        for j in range(3):
            assert w(0, (base + 3 + j,)) == 0
        assert s(0, (base,)) == 0
        assert s(0, (base + 1,)) == F(1, spec.n_eq)
        assert s(0, (base + 2,)) == F(1, spec.n_eq)


# ---------------------------------------------------------------------------
# known-solution schemes
# ---------------------------------------------------------------------------


def test_signal_fractions():
    spec = demo_spec()
    masses = reductions.signal_fractions(spec)
    n, tau = spec.n_var, 18
    x_bar = [F(v, tau) for v in spec.known_solution]
    q = F(n * (n - 1), 1) / (1 - sum(x_bar))
    assert masses[0] == 1
    assert masses[1:] == tuple(q * xb for xb in x_bar)
    zero_spec = reductions.LineqMaSpec.make(
        A=[[1, 0], [0, 1]], c=[0, 0], zeta=0, delta=0, known_solution=(0, 0)
    )
    assert reductions.signal_fractions(zero_spec) == (F(1), F(0), F(0))
    with pytest.raises(MissingSolution):
        reductions.signal_fractions(
            reductions.LineqMaSpec.make(A=[[1, 0]], c=[1], zeta=0, delta=0)
        )


@pytest.mark.parametrize("target", ["uniform", "graphic"])
def test_completeness_scheme_value_bound(target):
    spec = demo_spec()
    scheme = reductions.completeness_scheme(spec, target=target)
    inst = reductions.TARGETS[target](spec)
    assert check_persuasive(inst, scheme).persuasive
    value = expected_sender_value(inst, scheme)
    assert value >= F(spec.n_var - 1, spec.n_var)


@pytest.mark.parametrize("target", ["uniform", "graphic", "path"])
def test_completeness_scheme_enumerates_no_action(monkeypatch, target):
    """Each signal's recommendation comes from one oracle call, not a scan."""
    spec = demo_spec()

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_actions called")

    monkeypatch.setattr(persuasion, "enumerate_actions", refuse)
    scheme = reductions.completeness_scheme(spec, target=target)
    assert check_persuasive(reductions.TARGETS[target](spec), scheme).persuasive


def test_completeness_witness_is_within_every_engine_optimum():
    """A satisfiable system's witness is persuasive, so each engine's
    optimum bounds its value: ``solve_full`` and the relaxed
    ``solve_cce_exact`` from above on the uniform target and from below on
    the min-sense path target, ``solve_cce_exact`` from above on the
    graphic target, whose forests are too many for the full LP."""
    rng = random.Random("witness-bound")
    for k in range(12):
        # 2-4 variables; every fourth system has 3 equations, whose uniform
        # full LP (130 actions) takes most of the test's time
        spec = rand_spec(rng, n_var=2 + k % 3, n_eq=3 if k % 4 == 3 else 2)
        for target in ("uniform", "path", "graphic"):
            inst = reductions.TARGETS[target](spec)
            witness = expected_sender_value(inst, reductions.completeness_scheme(spec, target))
            optima = [cce.solve_cce_exact(cce.make_view(inst)).sender_value]
            if target != "graphic":
                optima.append(persuasion.solve_full(inst).sender_value)
            for optimum in optima:
                assert witness <= optimum if inst.sense is Sense.MAX else witness >= optimum, (target, spec)


def test_completeness_scheme_path_cost_bound():
    spec = demo_spec()
    scheme = reductions.completeness_scheme(spec, target="path")
    inst = reductions.gen_path_from_lineq(spec)
    assert check_persuasive(inst, scheme).persuasive
    cost = expected_sender_value(inst, scheme)
    n = spec.n_var
    assert cost <= F(1, n) * (1 + F(1, n))


# ---------------------------------------------------------------------------
# public persuasion -> partition
# ---------------------------------------------------------------------------


def test_partition_from_public_structure():
    spec = reductions.PublicPersuasionSpec.make(
        state_names=("low", "high"),
        prior=(F(1, 2), F(1, 2)),
        r0=[[4, 1], [1, 2]],
        r1=[[1, 3], [2, 5]],
        sender=[[1, 0], [0, 1]],
    )
    inst = reductions.gen_partition_from_public(spec)
    assert inst.num_elements == 2 * spec.n_rec
    assert inst.constraint.blocks == ((0, 1), (2, 3))
    assert inst.constraint.caps == (1, 1)
    for theta in range(2):
        for i in range(spec.n_rec):
            assert inst.receiver.value(theta, (2 * i,)) == spec.r0[theta][i]
            assert inst.receiver.value(theta, (2 * i + 1,)) == spec.r1[theta][i]
            assert inst.sender.value(theta, (2 * i,)) == 0
            assert inst.sender.value(theta, (2 * i + 1,)) == spec.sender[theta][i]


def test_partition_best_response_is_per_receiver_argmax():
    """The block structure decouples: at any belief the best response takes,
    in each block, the action-1 element iff its expected value wins (ties to
    the lower index, i.e. action 0)."""
    spec = reductions.PublicPersuasionSpec.make(
        state_names=("low", "high"),
        prior=(F(1, 3), F(2, 3)),
        r0=[[4, 1], [1, 2]],
        r1=[[1, 3], [2, 5]],
        sender=[[1, 0], [0, 1]],
    )
    inst = reductions.gen_partition_from_public(spec)
    for xi in (Posterior((F(1), F(0))), Posterior((F(1, 3), F(2, 3))), Posterior((F(0), F(1)))):
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        best = max(
            actions, key=lambda S: (expected_value(inst.receiver, xi, S), tuple(-e for e in S))
        )
        for i in range(spec.n_rec):
            v0 = expected_value(inst.receiver, xi, (2 * i,))
            v1 = expected_value(inst.receiver, xi, (2 * i + 1,))
            if v1 > v0:
                assert 2 * i + 1 in best
            else:
                assert 2 * i in best
