"""Acceptance gate: one test per shipping criterion, one pass/fail line each.

Each criterion is verified against independent brute-force oracles from
``helpers`` (feasibility LPs, 1-D sweeps, direct relaxed-obedience LPs,
Monte Carlo sampling), never against the solver's own bookkeeping.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from combisig import arrangement, best_response, cce, cli, jsonio, persuasion, reductions
from helpers import (
    brute_cce_value,
    brute_weak_optimal_actions,
    coverage_instance,
    rand_clean_instance,
    sweep_weak_optimal_2state,
)

F = Fraction
INSTANCES = Path(__file__).resolve().parents[1] / "instances"

CORPUS_SEED = 20260825
CORPUS_SIZE = 50
KINDS = ("uniform", "partition", "graphic", "oracle")


@pytest.fixture(scope="session")
def corpus_solved():
    """Fifty clean random instances (n <= 8, two or three states, all four
    constraint kinds) with their exact solver results, plus wall-clock cost."""
    rng = random.Random(CORPUS_SEED)
    t0 = time.monotonic()
    instances = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(3, 8)
        n_states = rng.choice((2, 3)) if n <= 6 else 2
        hi = 9 if n <= 5 else 99  # wider range keeps rejection sampling fast
        instances.append(rand_clean_instance(rng, n_states, n, KINDS[i % 4], hi=hi))
    gen_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    full = [persuasion.solve_full(inst) for inst in instances]
    reduced = [persuasion.solve_reduced(inst) for inst in instances]
    solve_elapsed = time.monotonic() - t0
    return {
        "instances": instances,
        "full": full,
        "reduced": reduced,
        "gen_elapsed": gen_elapsed,
        "solve_elapsed": solve_elapsed,
    }


def test_criterion_01_reduced_equals_full_on_clean_corpus(corpus_solved):
    for inst, rf, rr in zip(
        corpus_solved["instances"], corpus_solved["full"], corpus_solved["reduced"]
    ):
        assert rf.sender_value == rr.sender_value, (
            inst.constraint,
            rf.sender_value,
            rr.sender_value,
        )
    assert corpus_solved["gen_elapsed"] + corpus_solved["solve_elapsed"] < 120


def test_criterion_02_catalog_covers_weak_optima_within_cell_bound(corpus_solved):
    for inst in corpus_solved["instances"]:
        catalog = best_response.enumerate_best_responses(inst)
        if inst.num_states == 2:
            winners = sweep_weak_optimal_2state(inst)
        else:
            winners = brute_weak_optimal_actions(inst)
        assert winners <= set(catalog.actions), (
            inst.constraint,
            sorted(winners),
            sorted(catalog.actions),
        )
        n, d = inst.num_elements, inst.num_states - 1
        m = n * (n - 1) // 2
        cell_bound = sum(math.comb(m, i) for i in range(d + 1))
        assert len(catalog.actions) <= cell_bound


def test_criterion_03_every_solver_scheme_is_persuasive(corpus_solved):
    checked = 0
    for inst, rf, rr in zip(
        corpus_solved["instances"], corpus_solved["full"], corpus_solved["reduced"]
    ):
        for result in (rf, rr):
            report = persuasion.check_persuasive(inst, result.scheme)
            assert report.persuasive, (inst.constraint, result.method, report.violations)
            checked += 1
    assert checked == 2 * CORPUS_SIZE


def test_criterion_04_relaxed_obedience_matches_direct_lp_and_sandwich(corpus_solved):
    for inst, rf in zip(corpus_solved["instances"], corpus_solved["full"]):
        direct = brute_cce_value(inst)
        result = cce.solve_cce_exact(cce.make_view(inst))
        assert result.sender_value == direct, (inst.constraint, result.sender_value, direct)
        _, uninf = persuasion.uninformative_scheme(inst)
        assert result.sender_value >= rf.sender_value >= uninf


def test_criterion_05_approx_solver_hits_guarantees():
    eps = F(1, 10)
    t0 = time.monotonic()

    rng = random.Random(505)
    for i in range(20):
        n_states = 2 if i < 14 else 3
        n = rng.randint(3, 5) if n_states == 2 else rng.randint(3, 4)
        inst = rand_clean_instance(rng, n_states, n, KINDS[i % 4])
        opt = cce.solve_cce_exact(cce.make_view(inst)).sender_value
        view = cce.make_view(inst, epsilon=eps)
        assert view.oracle.alpha == 1
        approx = cce.solve_cce_approx(view)
        assert (1 - eps) * opt <= approx.sender_value <= opt, (
            inst.constraint,
            opt,
            approx.sender_value,
        )

    for _ in range(10):
        inst = coverage_instance(rng, rng.randint(4, 6), 2)
        opt = brute_cce_value(inst)
        view = cce.make_view(inst, oracle="half-greedy", epsilon=eps)
        assert view.oracle.alpha == F(1, 2)
        result = cce.solve_cce_approx(view)
        assert (F(1, 2) - eps) * opt <= result.sender_value <= opt, (
            opt,
            result.sender_value,
        )

    assert time.monotonic() - t0 < 600


def test_criterion_06_linear_system_schemes_hit_their_bounds():
    rng = random.Random(606)
    t0 = time.monotonic()
    for trial in range(10):
        n_var = 10 + trial % 3
        n_eq = 2
        A = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_var)]
            for _ in range(n_eq)
        ]
        x = [rng.randint(0, 1) for _ in range(n_var)]
        c = [sum((row[j] * x[j] for j in range(n_var)), start=F(0)) for row in A]
        spec = reductions.LineqMaSpec.make(A=A, c=c, zeta=0, delta=0, known_solution=x)

        for target in ("uniform", "graphic"):
            inst = reductions.TARGETS[target](spec)
            scheme = reductions.completeness_scheme(spec, target=target)
            assert persuasion.check_persuasive(inst, scheme).persuasive
            value = persuasion.expected_sender_value(inst, scheme)
            assert value >= F(n_var - 1, n_var), (target, n_var, value)

        inst = reductions.TARGETS["path"](spec)
        scheme = reductions.completeness_scheme(spec, target="path")
        assert persuasion.check_persuasive(inst, scheme).persuasive
        cost = persuasion.expected_sender_value(inst, scheme)
        assert cost <= F(1, n_var) * (1 + F(1, n_var)), (n_var, cost)
    assert time.monotonic() - t0 < 300


def test_criterion_07_cell_enumeration_covers_sampled_sign_vectors():
    rng = random.Random(707)
    for trial in range(100):
        num_states = trial % 3 + 2  # simplex dimensions one through three
        m = rng.randint(1, 8)
        planes = []
        for _ in range(m):
            normal = (0,) * num_states
            while not any(normal):
                normal = tuple(rng.randint(-4, 4) for _ in range(num_states))
            planes.append(arrangement.make_hyperplane(normal))
        cells = [c for c in arrangement.enumerate_cells(planes, num_states) if c.interior]
        assert cells
        seen = set()
        for cell in cells:
            assert all(p > 0 for p in cell.point) and sum(cell.point) == 1
            for plane, sign in zip(planes, cell.signs):
                assert arrangement.side(plane, cell.point) == sign
            seen.add(cell.signs)
        # integer weight vectors share their sign pattern with the normalized
        # simplex point, so pure-integer dot products sample the open simplex
        for _ in range(1000):
            w = tuple(rng.randint(1, 997) for _ in range(num_states))
            signs = []
            for plane in planes:
                dot = sum(nv * wv for nv, wv in zip(plane.normal, w))
                if dot == 0:
                    break  # boundary point: lies in no full-dimensional cell
                signs.append(1 if dot > 0 else -1)
            else:
                assert tuple(signs) in seen, (trial, w, signs)


def test_criterion_08_monte_carlo_validation_agrees_with_exact_values(
    corpus_solved, tmp_path, capsys
):
    within = 0
    runs = 40
    for i in range(runs):
        inst = corpus_solved["instances"][i]
        scheme = corpus_solved["full"][i].scheme
        inst_path = str(tmp_path / f"inst_{i}.json")
        scheme_path = str(tmp_path / f"scheme_{i}.json")
        jsonio.save_json(inst_path, jsonio.instance_to_json(inst))
        jsonio.save_json(
            scheme_path, jsonio.scheme_to_json(scheme, jsonio.instance_digest(inst))
        )
        code = cli.main(["validate", inst_path, scheme_path, "--seed", str(9000 + i)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["samples"] == 10_000
        within += bool(report["within_4se"])
    assert within >= math.ceil(0.95 * runs), f"{within}/{runs} runs within 4 SE"


def test_criterion_09_bundled_three_state_instance_catalog():
    inst = jsonio.instance_from_json(jsonio.load_json(str(INSTANCES / "weather_pair.json")))
    catalog = best_response.enumerate_best_responses(inst)
    assert catalog.actions == ((0, 1), (0, 2), (1, 2))
    assert catalog.num_cells == 6
    assert catalog.degeneracy.clean
    assert not catalog.perturbed
