"""Full/reduced persuasion LPs against closed forms and grid oracles."""

import gc
import random
from fractions import Fraction

import pytest

from combisig import cce, jsonio, lp, paths, persuasion
from combisig.errors import InstanceFormatError, TooLarge
from combisig.model import (
    TABULAR_MAX_ELEMENTS,
    Instance,
    Posterior,
    Sense,
    SignalingScheme,
    Uniform,
    UtilitySpec,
    deterministic_scheme,
    expected_value,
    posterior,
)
from helpers import (
    as_tables,
    grid_path_instance,
    rand_clean_instance,
    rand_instance,
    replace_fields,
    scan_tie_broken_response,
)

F = Fraction


def test_enumerate_uniform_k1():
    actions = persuasion.enumerate_actions(Uniform(1), 3)
    assert actions == [(), (0,), (1,), (2,)]


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        persuasion.enumerate_actions(Uniform(3), 21)


def test_single_state_optimum_is_tie_set_formula():
    rng = random.Random(2)
    for _ in range(10):
        inst = rand_instance(rng, 1, rng.randint(2, 6), "uniform")
        result = persuasion.solve_full(inst)
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        xi = Posterior((F(1),))
        best_r = max(expected_value(inst.receiver, xi, S) for S in actions)
        ties = [S for S in actions if expected_value(inst.receiver, xi, S) == best_r]
        expected = max(expected_value(inst.sender, xi, S) for S in ties)
        assert result.sender_value == expected


def test_aligned_utilities_full_revelation_value():
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(2, 6)
        inst = rand_instance(rng, rng.randint(2, 3), n, "uniform")
        aligned = Instance(
            state_names=inst.state_names,
            prior=inst.prior,
            element_names=inst.element_names,
            sender=inst.receiver,
            receiver=inst.receiver,
            constraint=inst.constraint,
        )
        result = persuasion.solve_full(aligned)
        actions = persuasion.enumerate_actions(aligned.constraint, n)
        expected = sum(
            aligned.prior[t]
            * max(aligned.receiver.value(t, S) for S in actions)
            for t in range(aligned.num_states)
        )
        assert result.sender_value == expected


def test_two_state_toy_matches_grid_oracle():
    """Independent oracle: two-signal schemes parameterized by the per-state
    probability of recommending the risky element, searched on a fine grid
    plus the exact persuasiveness breakpoints."""
    inst = jsonio.instance_from_json(jsonio.load_json("instances/two_state_toy.json"))
    result = persuasion.solve_full(inst)

    mu_b, mu_g = inst.prior  # states: bad, good
    r = inst.receiver.value
    s = inst.sender.value
    risky, safe = (1,), (0,)

    def scheme_value(p_bad, p_good):
        # persuasiveness of the risky signal
        risky_gain = mu_b * p_bad * (r(0, risky) - r(0, safe)) + mu_g * p_good * (
            r(1, risky) - r(1, safe)
        )
        safe_gain = mu_b * (1 - p_bad) * (r(0, safe) - r(0, risky)) + mu_g * (
            1 - p_good
        ) * (r(1, safe) - r(1, risky))
        if risky_gain < 0 or safe_gain < 0:
            return None
        return mu_b * p_bad * s(0, risky) + mu_g * p_good * s(1, risky) + mu_b * (
            1 - p_bad
        ) * s(0, safe) + mu_g * (1 - p_good) * s(1, safe)

    candidates = {F(i, 200) for i in range(201)}
    # exact breakpoint: risky-signal persuasiveness binding at p_good = 1
    num = mu_g * (r(1, risky) - r(1, safe))
    den = mu_b * (r(0, safe) - r(0, risky))
    if den != 0 and 0 <= num / den <= 1:
        candidates.add(num / den)
    best = max(
        (v for p_bad in candidates for v in [scheme_value(p_bad, F(1))] if v is not None),
    )
    assert result.sender_value == best == F(5, 6)


def test_reduced_equals_full_random_clean():
    rng = random.Random(1234)
    for trial in range(12):
        kind = ("uniform", "partition", "graphic", "oracle")[trial % 4]
        inst = rand_clean_instance(rng, rng.choice([2, 3]), rng.randint(3, 6), kind)
        full = persuasion.solve_full(inst)
        red = persuasion.solve_reduced(inst)
        assert full.sender_value == red.sender_value, f"trial {trial}"
        assert persuasion.check_persuasive(inst, full.scheme).persuasive
        assert persuasion.check_persuasive(inst, red.scheme).persuasive


def test_check_persuasive_flags_bad_recommendation():
    inst = jsonio.instance_from_json(jsonio.load_json("instances/two_state_toy.json"))
    # always recommend risky: at the prior the receiver strictly prefers safe
    scheme = deterministic_scheme(2, (1,))
    report = persuasion.check_persuasive(inst, scheme)
    assert not report.persuasive
    assert report.violations
    S, alt, slack = report.violations[0]
    assert S == (1,) and alt == (0,) and slack > 0


def test_sender_value_recomputation_invariant():
    rng = random.Random(77)
    for _ in range(6):
        inst = rand_instance(rng, 2, 4, "uniform")
        result = persuasion.solve_full(inst)
        assert result.sender_value == persuasion.expected_sender_value(
            inst, result.scheme
        )


def test_uninformative_is_lower_bound():
    rng = random.Random(88)
    for _ in range(8):
        inst = rand_instance(rng, 2, 4, "uniform")
        _, base = persuasion.uninformative_scheme(inst)
        assert persuasion.solve_full(inst).sender_value >= base


def test_min_path_instance():
    inst = jsonio.instance_from_json(jsonio.load_json("instances/route_min.json"))
    result = persuasion.solve_full(inst)
    assert result.sender_value == F(1, 8)
    assert persuasion.check_persuasive(inst, result.scheme).persuasive
    _, base = persuasion.uninformative_scheme(inst)
    assert result.sender_value <= base  # minimization: persuasion only helps


def test_min_random_paths_persuasive_and_below_uninformative():
    rng = random.Random(10)
    for _ in range(6):
        inst = rand_instance(rng, 2, 6, "uniform", sense=Sense.MIN)
        result = persuasion.solve_full(inst)
        assert persuasion.check_persuasive(inst, result.scheme).persuasive
        _, base = persuasion.uninformative_scheme(inst)
        assert result.sender_value <= base


def _beliefs(rng: random.Random, num_states: int, prior, count: int):
    """The prior, the uniform belief, every simplex vertex (where ties are
    most common) and ``count`` random rational beliefs."""
    D = num_states
    points = [prior, tuple(F(1, D) for _ in range(D))]
    points += [tuple(F(int(t == k)) for t in range(D)) for k in range(D)]
    for _ in range(count):
        w = [rng.randint(0, 3) for _ in range(D)]
        w[rng.randrange(D)] += 1
        points.append(tuple(F(x, sum(w)) for x in w))
    return [Posterior(p) for p in points]


def _degenerate_corpus(kind: str, count: int):
    """Utilities 0-3, so receiver and sender ties are everywhere."""
    rng = random.Random(f"tie-break/{kind}")
    for _ in range(count):
        D = rng.randint(1, 3)
        if kind == "grid":
            yield rng, grid_path_instance(rng, rng.randint(2, 4), rng.randint(2, 4), D, lo=0, hi=3)
        elif kind == "layered":
            yield rng, rand_instance(rng, D, rng.randint(2, 6), sense=Sense.MIN, lo=0, hi=3)
        else:
            yield rng, rand_instance(rng, D, rng.randint(2, 6), kind, lo=0, hi=3)


@pytest.mark.parametrize("kind", ["uniform", "partition", "graphic", "layered", "grid"])
def test_oracle_matches_the_scan_on_degenerate_instances(kind):
    """The one-call oracle gives the scan's (receiver, sender) values at
    every belief; only the choice among actions tied in both may differ.
    Written as tables, the same instance takes the scan inside
    ``best_action``, which must pick the reference's action exactly."""
    for rng, inst in _degenerate_corpus(kind, 40):
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        tables = as_tables(inst) if inst.num_elements <= TABULAR_MAX_ELEMENTS else None
        for xi in _beliefs(rng, inst.num_states, inst.prior, 4):
            got = persuasion.tie_broken_response(inst, xi)
            want = scan_tie_broken_response(inst, xi, actions)
            assert got in actions
            assert expected_value(inst.receiver, xi, got) == expected_value(inst.receiver, xi, want)
            assert expected_value(inst.sender, xi, got) == expected_value(inst.sender, xi, want)
            if tables is not None:
                assert persuasion.tie_broken_response(tables, xi) == scan_tie_broken_response(tables, xi, actions)


def test_linear_instances_never_enumerate_actions(monkeypatch):
    insts = [
        jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json"))
        for name in ("two_state_toy", "weather_pair", "route_min")
    ]
    schemes = [persuasion.solve_full(inst).scheme for inst in insts]

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_actions called for a linear instance")

    monkeypatch.setattr(persuasion, "enumerate_actions", refuse)
    for inst, scheme in zip(insts, schemes):
        assert persuasion.check_persuasive(inst, scheme).persuasive
        uninformative, _ = persuasion.uninformative_scheme(inst)
        assert persuasion.check_persuasive(inst, uninformative).persuasive


def test_lazy_rows_stop_on_the_certify_verdict(monkeypatch):
    """Each round's scheme gets one obedience pass, ``certify``'s: its
    verdict names the new pair rows, and the last one, on the returned
    scheme, ends the loop; no pass repeats it.  ``certify`` builds each
    round's signals once, for the scheme value and the pass."""
    passes, certified, built = [], [], []
    genuine_pass, genuine_certify, genuine_signals = persuasion._violations, persuasion.certify, persuasion._signals

    def pass_spy(instance, scheme, signals=None):
        passes.append(scheme)
        return genuine_pass(instance, scheme, signals)

    def certify_spy(instance, scheme, value, notion):
        certified.append(scheme)
        genuine_certify(instance, scheme, value, notion)

    monkeypatch.setattr(persuasion, "_violations", pass_spy)
    monkeypatch.setattr(persuasion, "certify", certify_spy)
    monkeypatch.setattr(persuasion, "_signals", lambda *args: built.append(args[1]) or genuine_signals(*args))
    for name in ("two_state_toy", "weather_pair", "route_min"):
        inst = jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json"))
        for solve in (persuasion.solve_full, lambda i: persuasion.solve_full(as_tables(i))):
            passes.clear()
            certified.clear()
            built.clear()
            result = solve(inst)
            rounds = result.lp_stats["cut_rounds"]
            assert rounds >= 2 and len(passes) == len(certified) == len(built) == rounds, name
            assert all(a is b for a, b in zip(built, certified)), name
            assert all(a is b for a, b in zip(passes, certified)) and passes[-1] is result.scheme, name


def test_lazy_rows_keep_one_model_across_rounds(monkeypatch):
    """``solve_full`` sets the objective once and adds each row once: the D
    state rows, then only each round's new pair rows, and every round's
    ``lp.solve`` gets that same model.  ``lp_stats`` reads as before."""
    objectives, rows, models, pivots = [], [], [], []
    genuine_objective, genuine_row, genuine_solve = lp.LPModel.set_objective, lp.LPModel.add_row, lp.solve

    def objective_spy(self, *args):
        objectives.append(self)
        genuine_objective(self, *args)

    def row_spy(self, *args):
        rows.append(self)
        return genuine_row(self, *args)

    def solve_spy(model, *args):
        models.append(model)
        result = genuine_solve(model, *args)
        pivots.append(result.pivots)
        return result

    monkeypatch.setattr(lp.LPModel, "set_objective", objective_spy)
    monkeypatch.setattr(lp.LPModel, "add_row", row_spy)
    monkeypatch.setattr(lp, "solve", solve_spy)
    for name in ("two_state_toy", "weather_pair", "route_min"):
        inst = jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json"))
        for solved in (inst, as_tables(inst)):
            for log in (objectives, rows, models, pivots):
                log.clear()
            stats = persuasion.solve_full(solved).lp_stats
            assert stats["cut_rounds"] >= 2 and len(objectives) == 1, name
            model = objectives[0]
            assert set(models) == set(rows) == {model} and len(models) == stats["cut_rounds"], name
            assert len(rows) == len(model.rows) == inst.num_states + stats["pair_rows"], name
            assert stats == {
                "pivots": sum(pivots),
                "cut_rounds": len(models),
                "pair_rows": len(model.rows) - inst.num_states,
                "columns": model.num_vars,
            }, name


def test_solve_full_enumerates_a_tabular_receiver_once(monkeypatch):
    """The lazy-row loop's obedience passes scan ``solve_full``'s own
    actions, and a later audit of the same instance scans them again: one
    enumeration per instance, however many rounds the solve takes."""
    genuine = persuasion.enumerate_actions
    calls = []
    monkeypatch.setattr(persuasion, "enumerate_actions", lambda *a: calls.append(a) or genuine(*a))
    for name in ("two_state_toy", "weather_pair", "route_min"):
        inst = as_tables(jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json")))
        calls.clear()
        result = persuasion.solve_full(inst)
        assert result.lp_stats["cut_rounds"] >= 2 and len(calls) == 1, name
        assert persuasion.check_persuasive(inst, result.scheme).persuasive and len(calls) == 1, name


def test_every_tabular_scan_of_an_instance_shares_one_enumeration(monkeypatch):
    """Full and relaxed solves, the audit, the tie-broken responses, the
    relaxed view and ``certify`` of one tabular instance enumerate its
    actions once, on first use; the kept tuple is what ``enumerate_actions``
    lists, and a second instance equal to the first enumerates its own."""
    genuine = persuasion.enumerate_actions
    calls = []
    monkeypatch.setattr(persuasion, "enumerate_actions", lambda *a: calls.append(a) or genuine(*a))
    raw = jsonio.instance_to_json(as_tables(jsonio.instance_from_json(jsonio.load_json("instances/weather_pair.json"))))
    inst, twin = jsonio.instance_from_json(raw), jsonio.instance_from_json(raw)
    result = persuasion.solve_full(inst)
    assert len(calls) == 1
    assert persuasion.check_persuasive(inst, result.scheme).persuasive
    responses = [persuasion.tie_broken_response(inst, posterior(inst, result.scheme, S)) for S in result.scheme.support]
    assert responses == list(result.scheme.support)
    view = cce.make_view(inst)
    relaxed = [cce.solve_cce_exact(view), cce.solve_cce_approx(view)]
    for r in relaxed:
        persuasion.certify(inst, r.scheme, r.sender_value, persuasion.RELAXED)
    persuasion.certify(inst, result.scheme, result.sender_value, persuasion.PERSUASIVE)
    assert len(calls) == 1
    assert persuasion.feasible_actions(inst) == tuple(genuine(inst.constraint, inst.num_elements))
    persuasion.check_persuasive(twin, result.scheme)
    assert len(calls) == 2


def test_a_kept_action_list_keeps_its_caps():
    """``feasible_actions`` refuses past the call's cap whether it enumerates
    or reads the kept tuple, with the enumeration's error and that cap as
    its bound; a path instance with no cap checks ``paths.DEFAULT_PATH_CAP``;
    a refused first call keeps nothing."""
    weather = jsonio.instance_from_json(jsonio.load_json("instances/weather_pair.json"))
    route = jsonio.instance_from_json(jsonio.load_json("instances/route_min.json"))
    for inst in (weather, route):
        with pytest.raises(TooLarge) as first:
            persuasion.feasible_actions(inst, max_actions=1)
        with pytest.raises(AttributeError):
            object.__getattribute__(inst, "_actions")  # the refused call kept nothing
        actions = persuasion.feasible_actions(inst)
        assert len(actions) > 1 and persuasion.feasible_actions(inst, len(actions)) is actions
        with pytest.raises(TooLarge) as kept:
            persuasion.feasible_actions(inst, max_actions=1)
        assert kept.value.bound == first.value.bound == 1 and str(kept.value) == str(first.value)
        with pytest.raises(TooLarge, match="requested cap|source-sink paths"):
            persuasion.solve_full(inst, max_actions=len(actions) - 1)
    big = replace_fields(route)
    object.__setattr__(big, "_actions", ((0,),) * (paths.DEFAULT_PATH_CAP + 1))
    with pytest.raises(TooLarge) as default:
        persuasion.feasible_actions(big)
    assert default.value.bound == paths.DEFAULT_PATH_CAP
    assert len(persuasion.feasible_actions(big, paths.DEFAULT_PATH_CAP + 1)) == paths.DEFAULT_PATH_CAP + 1


def test_check_persuasive_names_one_best_deviation_per_signal():
    """Every recommendation of the weather instance disobeyed: each signal
    gets one violation, naming the receiver's best action at its posterior."""
    inst = jsonio.instance_from_json(jsonio.load_json("instances/weather_pair.json"))
    A, B, C = (0, 1), (0, 2), (1, 2)
    scheme = SignalingScheme.from_phi(
        3, {(0, C): F(1), (1, B): F(1), (2, A): F(1, 2), (2, C): F(1, 2)}
    )
    report = persuasion.check_persuasive(inst, scheme)
    assert not report.persuasive
    actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
    assert [(S, alt) for S, alt, _ in report.violations] == [(A, B), (B, C), (C, B)]
    for S, alt, gap in report.violations:
        xi = posterior(inst, scheme, S)
        best = max(expected_value(inst.receiver, xi, T) for T in actions)
        assert expected_value(inst.receiver, xi, alt) == best
        assert gap == best - expected_value(inst.receiver, xi, S) > 0


@pytest.mark.parametrize(
    "name,action,message",
    [
        ("weather_pair", (0, 1, 2), "not independent"),
        ("weather_pair", (0, 7), "not within the ground set"),
        ("route_min", (0, 7), "not a source-sink path"),
        ("route_min", (0, 3), "not a source-sink path"),
        ("route_min", (), "not a source-sink path"),
    ],
)
def test_check_persuasive_rejects_infeasible_recommendations(name, action, message):
    inst = jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json"))
    with pytest.raises(InstanceFormatError, match=message):
        persuasion.check_persuasive(inst, deterministic_scheme(inst.num_states, action))


@pytest.mark.parametrize("name", ["weather_pair", "route_min"])
def test_full_solve_leaves_no_reference_cycle(name):
    """A matroid and a path solve free their action lists, oracles and
    tableaux by reference counting alone: with the cycle collector off,
    it finds nothing left after the solve."""
    inst = jsonio.instance_from_json(jsonio.load_json(f"instances/{name}.json"))
    gc.collect()
    gc.disable()
    try:
        persuasion.solve_full(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
