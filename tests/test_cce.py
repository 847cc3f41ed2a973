"""Relaxed-obedience solvers against an independently built direct LP."""

import random
from fractions import Fraction
from math import lcm

import pytest

from combisig import cce, jsonio, lp, matroid, persuasion
from combisig.errors import (
    CertificateError,
    DegenerateBounds,
    OracleContractViolation,
    ParameterError,
    UnsupportedSense,
)
from combisig.model import (
    ActionSet,
    Instance,
    PathGraph,
    Posterior,
    Sense,
    Uniform,
    UtilitySpec,
    expected_value,
)
from helpers import (
    as_tables,
    brute_cce_value,
    coverage_instance,
    follow_value,
    fraction_det,
    fraction_ellipsoid_run,
    fraction_half_greedy,
    fraction_separation,
    grid_path_instance,
    rand_instance,
    replace_fields,
)

F = Fraction


def test_prior_best_value_brute():
    rng = random.Random(6)
    for _ in range(10):
        inst = rand_instance(rng, rng.choice([1, 2, 3]), rng.randint(2, 5), "uniform")
        C, S_C = cce.prior_best_value(inst)
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        xi = Posterior(inst.prior)
        best = max(expected_value(inst.receiver, xi, S) for S in actions)
        assert C == best
        assert expected_value(inst.receiver, xi, S_C) == C


def test_exact_matches_brute_lp_max():
    rng = random.Random(101)
    for trial in range(20):
        kind = ("uniform", "partition", "graphic")[trial % 3]
        inst = rand_instance(rng, rng.choice([2, 3]), rng.randint(3, 6), kind)
        view = cce.make_view(inst, audit=True)
        result = cce.solve_cce_exact(view)
        assert result.sender_value == brute_cce_value(inst), f"trial {trial}"
        # aggregate obedience holds with the exact threshold
        assert follow_value(inst, result.scheme) >= view.C


def test_exact_matches_brute_lp_min_paths():
    rng = random.Random(202)
    for trial in range(6):
        inst = rand_instance(rng, 2, 6, "uniform", sense=Sense.MIN)
        view = cce.make_view(inst)
        result = cce.solve_cce_exact(view)
        assert result.sender_value == brute_cce_value(inst), f"trial {trial}"
        assert follow_value(inst, result.scheme) <= view.C
        # the same sender costs as a table take the brute-force oracle
        paths = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        tables = [{S: inst.sender.value(t, S) for S in [(), *paths]} for t in range(2)]
        tabular = replace_fields(inst, sender=UtilitySpec.from_tabular(tables))
        view = cce.make_view(tabular)
        assert view.oracle.kind == "exact"
        assert cce.solve_cce_exact(view).sender_value == result.sender_value


def test_exact_solves_one_lp_per_round(monkeypatch):
    """Column generation reads its duals off the round's own LP: no other
    LP is solved, the final one included."""
    calls = []
    genuine = lp.solve

    def counting(model, *args):
        calls.append(model)
        return genuine(model, *args)

    monkeypatch.setattr(lp, "solve", counting)
    rng = random.Random(909)
    for trial in range(8):
        sense = (Sense.MAX, Sense.MIN)[trial % 2]
        inst = rand_instance(rng, rng.choice([2, 3]), 5, "partition", sense=sense)
        view = cce.make_view(inst)
        calls.clear()
        result = cce.solve_cce_exact(view)
        assert len(calls) == result.lp_stats["cut_rounds"], f"trial {trial}"
        assert len(calls[-1].objective) == result.lp_stats["columns"]


def _hand_built(prior, sender, receiver, constraint, sense=Sense.MAX) -> Instance:
    return Instance(
        state_names=tuple(f"s{t}" for t in range(len(prior))),
        prior=tuple(F(p) for p in prior),
        element_names=tuple(f"e{i}" for i in range(len(sender[0]))),
        sender=UtilitySpec.from_linear(sender),
        receiver=UtilitySpec.from_linear(receiver),
        constraint=constraint,
        sense=sense,
    )


DIAMOND = PathGraph(num_vertices=4, edges=((0, 1), (0, 2), (1, 3), (2, 3)), source=0, sink=3)
# Each restricted LP here has several optimal dual points: the first one
# holds only prior-best columns, which meet the obedience row with equality,
# so every y >= 0 prices it optimally; repeated columns, an indifferent
# receiver and an all-zero state keep later rounds degenerate too.
DUAL_DEGENERATE = {
    "repeated-columns": _hand_built(
        ("1/2", "1/2"), [[1, 1, 0], [0, 2, 2]], [[2, 2, 1], [1, 1, 3]], Uniform(1)
    ),
    "indifferent-receiver": _hand_built(("1/3", "2/3"), [[0, 3], [2, 0]], [[1, 1], [1, 1]], Uniform(1)),
    "all-zero-state": _hand_built(
        ("1/4", "3/4"), [[3, 1, 1], [1, 0, 0]], [[0, 0, 0], [1, 2, 3]], Uniform(2)
    ),
    "tied-three-states": _hand_built(
        ("1/3", "1/3", "1/3"), [[2, 0, 1], [0, 2, 1], [1, 1, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 2]], Uniform(1)
    ),
    "tied-routes-min": _hand_built(
        ("1/2", "1/2"), [[1, 2, 1, 2], [2, 1, 2, 1]], [[1, 1, 1, 1], [1, 1, 2, 1]], DIAMOND, Sense.MIN
    ),
    "indifferent-receiver-min": _hand_built(
        ("2/5", "3/5"), [[3, 0, 3, 0], [0, 2, 0, 2]], [[1, 1, 1, 1], [1, 1, 1, 1]], DIAMOND, Sense.MIN
    ),
}


@pytest.mark.parametrize("inst", DUAL_DEGENERATE.values(), ids=DUAL_DEGENERATE.keys())
def test_exact_on_dual_degenerate_instances(inst):
    view = cce.make_view(inst, audit=True)
    result = cce.solve_cce_exact(view)
    assert result.sender_value == brute_cce_value(inst)
    assert persuasion.expected_sender_value(inst, result.scheme) == result.sender_value
    row = follow_value(inst, result.scheme)
    assert row >= view.C if inst.sense is Sense.MAX else row <= view.C


# Only one element fits (Uniform(1)), and each is worth 1 to the sender.
SINGLE_PICK = _hand_built(("1/2", "1/2"), [[1, 1], [1, 1]], [[2, 1], [1, 2]], Uniform(1))


@pytest.mark.parametrize("solve", [cce.solve_cce_exact, cce.solve_cce_approx], ids=["exact", "approx"])
def test_infeasible_oracle_answer_is_refused(solve):
    """An oracle proposing the infeasible pair (0, 1), worth 2 where no
    feasible action is worth more than 1, is caught before the scheme
    leaves the solver."""
    both = cce.ApproxOracle(kind="custom", alpha=F(1), fn=lambda state, y: (0, 1))
    with pytest.raises(CertificateError):
        solve(cce.make_view(SINGLE_PICK, oracle=both))


def test_every_engine_certifies_the_scheme_it_returns(monkeypatch):
    calls = []
    genuine = persuasion.certify

    def spy(instance, scheme, value, notion):
        calls.append((scheme, value, notion))
        genuine(instance, scheme, value, notion)

    monkeypatch.setattr(persuasion, "certify", spy)
    monkeypatch.setattr(cce, "certify", spy)
    inst = rand_instance(random.Random(31), 2, 3, "uniform")
    no_sender = replace_fields(inst, sender=UtilitySpec.from_linear([[0] * 3, [0] * 3]))
    engines = {
        "full": (lambda: persuasion.solve_full(inst), persuasion.PERSUASIVE),
        "reduced": (lambda: persuasion.solve_reduced(inst), persuasion.PERSUASIVE),
        "cce-exact": (lambda: cce.solve_cce_exact(cce.make_view(inst)), persuasion.RELAXED),
        "cce-approx": (lambda: cce.solve_cce_approx(cce.make_view(inst)), persuasion.RELAXED),
        # a zero optimum ends the search on the uninformative scheme
        "cce-approx-fallback": (lambda: cce.solve_cce_approx(cce.make_view(no_sender)), persuasion.RELAXED),
    }
    for name, (solve, notion) in engines.items():
        calls.clear()
        result = solve()
        assert len(calls) == 1, name
        scheme, value, seen = calls[0]
        assert scheme is result.scheme and value == result.sender_value and seen == notion, name
    assert result.lp_stats["columns"] == 0  # the fallback ran


def test_sandwich_relaxation_dominates_persuasion():
    rng = random.Random(303)
    for _ in range(10):
        inst = rand_instance(rng, 2, rng.randint(3, 5), "uniform")
        opt_cce = cce.solve_cce_exact(cce.make_view(inst)).sender_value
        opt_pers = persuasion.solve_full(inst).sender_value
        _, base = persuasion.uninformative_scheme(inst)
        assert opt_cce >= opt_pers >= base


def test_v_bounds_bracket_the_optimum():
    rng = random.Random(404)
    for _ in range(10):
        inst = rand_instance(rng, 2, 4, "uniform")
        v_min, v_max = cce.compute_v_bounds(inst)
        assert 0 < v_min <= v_max
        opt = cce.solve_cce_exact(cce.make_view(inst)).sender_value
        assert opt <= v_max
        # any nonzero optimum clears the mass-granularity floor
        if opt != 0:
            assert opt >= v_min


def test_degenerate_bounds_zero_sender():
    inst = Instance(
        state_names=("s0", "s1"),
        prior=(F(1, 2), F(1, 2)),
        element_names=("a", "b"),
        sender=UtilitySpec.from_linear([[0, 0], [0, 0]]),
        receiver=UtilitySpec.from_linear([[1, 2], [2, 1]]),
        constraint=Uniform(1),
    )
    with pytest.raises(DegenerateBounds):
        cce.compute_v_bounds(inst)
    # solve_cce_approx substitutes a surrogate bracket; both solvers return 0
    view = cce.make_view(inst)
    assert cce.solve_cce_exact(view).sender_value == 0
    assert cce.solve_cce_approx(view).sender_value == 0


def test_separation_flags_infeasible_point():
    inst = rand_instance(random.Random(9), 2, 4, "uniform")
    view = cce.make_view(inst)
    # the all-zero dual point violates every (state, action) row with s > 0
    rows, proposals = cce.separation(view, (0, 0), 0, 1)
    assert rows and proposals


def _thinned(rng: random.Random, inst: Instance) -> Instance:
    """``inst`` with every linear utility value divided by 1..4, so that
    states' rows have different denominators."""

    def thin(util):
        return UtilitySpec.from_linear([[v / rng.randint(1, 4) for v in row] for row in util.linear])

    return replace_fields(inst, sender=thin(inst.sender), receiver=thin(inst.receiver))


def test_integer_separation_matches_the_fraction_reference():
    """``separation`` on integers over one denominator (reduced or not)
    against ``helpers.fraction_separation`` at the same point: max-sense
    matroids and min-sense paths, linear and tabular utilities, the exact
    and half-greedy oracles, y = 0, and points exactly on an oracle
    answer's row, which are not violated."""
    rng = random.Random(1717)
    cases = []
    for kind in ("uniform", "partition", "graphic"):
        inst = _thinned(rng, rand_instance(rng, 2, 4, kind, lo=0, hi=6))
        cases += [(inst, "exact"), (as_tables(inst), "exact"), (inst, "half-greedy")]
    for inst in (rand_instance(rng, 3, 4, sense=Sense.MIN, lo=0), grid_path_instance(rng, 2, 3, 2)):
        inst = _thinned(rng, inst)
        cases += [(inst, "exact"), (as_tables(inst), "exact")]
    cases += [(coverage_instance(rng, 4, 2), "half-greedy"), (coverage_instance(rng, 5, 3), "half-greedy")]
    on_row = zero_y = violated = clean = 0
    for inst, oracle in cases:
        view = cce.make_view(inst, oracle=oracle, epsilon=F(1, 10))
        D, mu = inst.num_states, inst.prior
        memo: dict = {}
        for k in range(30):
            y = F(0) if k % 5 == 0 else F(rng.randint(0, 40), rng.randint(1, 6))
            x = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(D)]
            if k % 2:
                t = rng.randrange(D)
                S = view.oracle.fn(t, y)
                x[t] = mu[t] * (inst.sender.value(t, S) + y * inst.receiver.value(t, S))
            den = lcm(*(c.denominator for c in (*x, y))) * rng.randint(1, 3)
            X = [c.numerator * (den // c.denominator) for c in x]
            got = cce.separation(view, X, y.numerator * (den // y.denominator), den, memo)
            assert got == fraction_separation(view, x, y), (inst, oracle, x, y)
            if k % 2:
                on_row += 1
                assert (t, S) not in got[0]
            zero_y += y == 0
            violated += bool(got[0])
            clean += not got[0]
    assert on_row >= 150 and zero_y >= 60 and violated >= 100 and clean >= 20


def test_half_greedy_integer_key_picks_the_fraction_keys_action():
    """The half-greedy oracle's integer key against the ``Fraction`` key of
    ``helpers.fraction_half_greedy``: same action, first of ties included,
    with linear senders (fractional rows) and tabular coverage senders."""
    rng = random.Random(1818)
    ties = calls = 0
    for trial in range(12):
        if trial % 2:
            inst = coverage_instance(rng, 5, 2)
        else:
            inst = _thinned(rng, rand_instance(rng, 2, 5, ("uniform", "partition")[trial % 4 // 2], lo=0, hi=3))
        oracle = cce.half_greedy_submodular_oracle(inst)
        for k in range(12):
            y = F(0) if k == 0 else F(rng.randint(0, 12), rng.randint(1, 4))
            for t in range(inst.num_states):
                expected, tied = fraction_half_greedy(inst, t, y)
                assert oracle.fn(t, y) == expected, (inst, t, y)
                ties += tied
                calls += 1
    assert calls == 12 * 12 * 2 and ties >= 50


def test_exact_oracle_builds_its_matroid_oracle_once(monkeypatch):
    """The exact oracle builds a matroid's independence oracle once per view
    and hands it to the ``matroid.max_weight_action`` call of every sweep,
    so sweeps build none."""
    built, passed = [], []
    genuine_for, genuine_max = matroid.oracle_for, matroid.max_weight_action
    monkeypatch.setattr(matroid, "oracle_for", lambda *a: built.append(genuine_for(*a)) or built[-1])
    monkeypatch.setattr(matroid, "max_weight_action", lambda *a: passed.append(a[3:]) or genuine_max(*a))
    inst = rand_instance(random.Random(5), 2, 5, "graphic")
    cce.exact_oracle(inst)
    assert len(built) == 1
    built.clear()
    view = cce.make_view(inst, oracle="exact")
    from_view = len(built)
    passed.clear()
    for k in range(25):
        cce.separation(view, (0, 0), k, 3)
    assert len(built) == from_view
    result = cce.solve_cce_exact(view)
    sweeps = 25 + result.lp_stats["cut_rounds"]
    prebuilt = [args[0] for args in passed if args]
    assert result.lp_stats["cut_rounds"] >= 2
    assert len(prebuilt) == sweeps * inst.num_states
    assert len({id(o) for o in prebuilt}) == 1 and prebuilt[0] in built[:from_view]


def test_relaxed_solve_enumerates_a_tabular_instance_once(monkeypatch):
    """``make_view`` enumerates the feasible actions on first use, and the
    exact oracle, the prior best, the approximate path's bracket and
    ``certify`` of both solves all scan that one tuple: one enumeration
    per instance."""
    genuine = persuasion.enumerate_actions
    calls = []
    monkeypatch.setattr(persuasion, "enumerate_actions", lambda *a: calls.append(a) or genuine(*a))
    inst = as_tables(jsonio.instance_from_json(jsonio.load_json("instances/weather_pair.json")))
    for solve in (cce.solve_cce_exact, cce.solve_cce_approx):
        result = solve(cce.make_view(inst))
        assert len(calls) == 1, solve.__name__
        assert result.sender_value == brute_cce_value(inst)


def test_exact_oracle_agrees_with_brute():
    """The exact oracle's greedy / Dijkstra path against its scan of every
    action on the same instance written as tables, and against
    ``best_action`` itself, ties included, max and min sense.  With only
    the receiver as a table the oracle scans too, and picks the tables'
    action, ties going to the least, also at y = 0, where only the linear
    sender is weighed."""
    rng = random.Random(515)
    for trial in range(12):
        sense = (Sense.MAX, Sense.MIN)[trial % 2]
        inst = rand_instance(rng, 2, 5, "uniform", sense=sense, hi=3)
        fast = cce.exact_oracle(inst)
        tables = as_tables(inst)
        brute = cce.exact_oracle(tables)
        mixed = cce.exact_oracle(replace_fields(inst, receiver=tables.receiver))
        s, r = inst.sender.value, inst.receiver.value
        for t in range(2):
            assert mixed.fn(t, F(0)) == brute.fn(t, F(0)), "y = 0 scans, ties to the least action"
        for _ in range(6):
            t = rng.randrange(2)
            y = F(rng.randint(0, 12), rng.randint(1, 4))
            assert mixed.fn(t, y) == brute.fn(t, y)

            def score(S: ActionSet) -> F:
                return s(t, S) + y * r(t, S)

            assert score(fast.fn(t, y)) == score(brute.fn(t, y))
            point = Posterior(tuple(F(int(s == t)) for s in range(2)))
            assert fast.fn(t, y) == persuasion.best_action(inst, point, y, F(1)), "integer rows keep ties"


def test_approx_alpha_one_within_epsilon():
    rng = random.Random(616)
    for trial in range(4):
        inst = rand_instance(rng, 2, 4, ("uniform", "partition")[trial % 2])
        view = cce.make_view(inst, epsilon=F(1, 10))
        approx = cce.solve_cce_approx(view)
        exact = cce.solve_cce_exact(view).sender_value
        assert approx.sender_value <= exact
        assert approx.sender_value >= (1 - F(1, 10)) * exact, f"trial {trial}"
        assert follow_value(inst, approx.scheme) >= view.C


def test_approx_half_greedy_guarantee():
    rng = random.Random(717)
    for trial in range(3):
        inst = coverage_instance(rng, 4, 2)
        view = cce.make_view(inst, oracle="half-greedy", epsilon=F(1, 10), audit=True)
        assert view.oracle.alpha == F(1, 2)
        approx = cce.solve_cce_approx(view)
        exact = cce.solve_cce_exact(cce.make_view(inst, max_actions=None)).sender_value
        assert approx.sender_value >= (F(1, 2) - F(1, 10)) * exact, f"trial {trial}"
        assert approx.sender_value <= exact
        assert persuasion.expected_sender_value(inst, approx.scheme) == approx.sender_value


def test_integer_ellipsoid_matches_the_fraction_reference(monkeypatch):
    """Every binary-search guess of ``solve_cce_approx``: the integer kernel
    returns the ``Fraction`` kernel's verdict, proposals and iteration count,
    and separates at the same centers, with the exact oracle on 2- and
    3-state matroids and with half-greedy on coverage instances."""
    points = []
    genuine = cce.separation

    def spy(view, X, Y, den, *memo):
        points.append((*(F(c, den) for c in X), F(Y, den)))
        return genuine(view, X, Y, den, *memo)

    monkeypatch.setattr(cce, "separation", spy)
    rng = random.Random(1414)
    cases = [
        (rand_instance(rng, 2, 3, "uniform"), "exact"),
        (rand_instance(rng, 2, 3, "partition"), "exact"),
        (rand_instance(rng, 3, 3, "graphic"), "exact"),
        (coverage_instance(rng, 4, 2), "half-greedy"),
    ]
    for inst, oracle in cases:
        view = cce.make_view(inst, oracle=oracle, epsilon=F(1, 10))
        v_min, v_max = cce.compute_v_bounds(inst)
        lo, hi = F(0), v_max
        for _ in range(cce._ceil_log2(v_max / (view.epsilon * v_min)) + 1):
            v = (lo + hi) / 2
            points.clear()
            run = cce._ellipsoid_run(view, v, v_min, v_max)
            centers = points[:]
            points.clear()
            assert run == fraction_ellipsoid_run(view, v, v_min, v_max)
            assert centers == points
            lo, hi = (lo, v) if run[0] else (v, hi)


def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(77)
    zero_lead = singular = 0
    for trial in range(300):
        size = 1 + trial % 5
        m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        if trial % 3 == 0:
            m[0][0] = 0
        if trial % 7 == 0 and size > 1:
            m[-1] = [2 * v for v in m[0]]
        zero_lead += m[0][0] == 0
        det = cce._bareiss_det(m)
        singular += det == 0
        assert det == fraction_det(m), m
    assert zero_lead >= 100 and singular >= 40


def test_approx_min_unsupported():
    inst = jsonio.instance_from_json(jsonio.load_json("instances/route_min.json"))
    view = cce.make_view(inst)
    with pytest.raises(UnsupportedSense):
        cce.solve_cce_approx(view)


def test_epsilon_must_undercut_alpha():
    inst = rand_instance(random.Random(1), 2, 3, "uniform")
    with pytest.raises(ParameterError):
        cce.make_view(inst, oracle="half-greedy", epsilon=F(1, 2))
    with pytest.raises(ParameterError):
        cce.make_view(inst, epsilon=F(0))


def test_audit_catches_broken_oracle():
    inst = rand_instance(random.Random(4), 2, 4, "uniform")

    def worst(state: int, y):
        # deliberately returns the empty set: never near-optimal here
        return ()

    broken = cce.ApproxOracle(kind="custom", alpha=F(1), fn=worst)
    view = cce.make_view(inst, oracle=broken, audit=True)
    with pytest.raises(OracleContractViolation):
        cce.solve_cce_exact(view)


def test_exact_requires_exact_oracle():
    inst = coverage_instance(random.Random(8), 4, 2)
    view = cce.make_view(inst, oracle="half-greedy", epsilon=F(1, 10))
    with pytest.raises(ParameterError):
        cce.solve_cce_exact(view)
