"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mix  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from measure import min_samples, percentile  # noqa: E402

COSTS = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))["costs"]


def _digests(rounds):
    return [e["digest"] for entries in rounds for e in entries]


def test_same_seed_same_digests_and_other_seed_differs():
    first, again, other = mix.build(7, COSTS), mix.build(7, COSTS), mix.build(8, COSTS)
    assert _digests(first) == _digests(again)
    assert mix.mix_digest(first) == mix.mix_digest(again)
    assert mix.mix_digest(first) != mix.mix_digest(other)
    assert {e["digest"] for e in first[0]} != {e["digest"] for e in other[0]}


def test_digest_matches_the_package():
    from combisig import jsonio, matroid

    for entries in mix.build(3, COSTS):
        mix.register_oracles(matroid, [e["instance"] for e in entries])
        for e in entries:
            assert jsonio.instance_digest(jsonio.instance_from_json(e["instance"])) == e["digest"]


def test_rounds_use_each_eligible_variant_of_a_slot_once():
    rounds = mix.build(5, COSTS)
    assert [len(entries) for entries in rounds] == [len(mix.SLOTS)] * mix.ROUNDS
    for index in range(len(mix.SLOTS)):
        used = sorted(entries[index]["variant"] for entries in rounds)
        assert used == sorted(mix.eligible(COSTS, index))


def test_exact_audit_rejects_parallel_differences():
    assert mix.is_clean([[1, 2, 4], [3, 7, 2]])
    # e0 - e1 and e1 - e2 are parallel: a degenerate family.
    assert not mix.is_clean([[1, 2, 3], [1, 2, 3]])
    assert mix.is_linear_forest([(0, 1), (2, 3)])
    assert not mix.is_linear_forest([(0, 1), (0, 2), (0, 3)])
    assert not mix.is_linear_forest([(0, 1), (1, 2), (0, 2)])


def test_p80_has_ten_samples_beyond_it_from_fifty_samples():
    values = [float(v) for v in range(1, 51)]
    assert percentile(values, 0.8) == (40.0, 10)
    assert percentile(values, 0.5) == (25.0, 25)
    assert percentile(values[:49], 0.8)[1] == 9
    assert min_samples(0.8, 10) == 50


def test_raising_and_timed_out_operations_count_as_failed(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT", 0.2)

    def boom():
        raise ValueError("boom")

    ops = [
        workloads.Op("raises", boom, lambda out: None),
        workloads.Op("sleeps", lambda: time.sleep(5), lambda out: None),
        workloads.Op("wrong", lambda: 1, lambda out: "wrong output"),
        workloads.Op("fine", lambda: 1, lambda out: None),
    ]
    start = time.perf_counter()
    samples, _ = run.closed_loop([ops], 0.0)
    assert time.perf_counter() - start < 2
    assert [s.op.label for s in samples] == ["raises", "sleeps", "wrong", "fine"]
    failures = run.verify(samples)
    assert sorted(failures) == [0, 1, 2]
    assert "OpTimeout" in failures[1]
    assert samples[1].seconds >= 0.2


def test_wrapper_catches_calls_through_every_binding_name():
    from combisig import model, paths, persuasion
    from combisig.model import PathGraph, Posterior, UtilitySpec

    original = paths.shortest_path
    assert persuasion.shortest_path is original  # two modules bind the name
    t = tracer.Tracer()
    t.install()
    try:
        graph = PathGraph(num_vertices=3, edges=((0, 1), (1, 2), (0, 2)), source=0, sink=2)
        assert persuasion.shortest_path(graph, [Fraction(1), Fraction(1), Fraction(5)]) == (0, 1)
        util = UtilitySpec.from_linear([[1, 2]])
        persuasion.expected_value(util, Posterior((Fraction(1),)), (0, 1))
    finally:
        t.uninstall()
    names = [span[tracer.NAME] for span in t.spans]
    assert names == ["paths.shortest_path", "model.expected_value"]
    assert paths.shortest_path is original and persuasion.shortest_path is original
    assert model.expected_value is persuasion.expected_value


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "paths", [("no_such_function", "paths.none", False)])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["paths.no_such_function"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_sizes_match_the_built_workloads(workload, tmp_path):
    import types

    from combisig import cce, cli, jsonio, lp, matroid, persuasion

    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    rounds = mix.build(1, refs["costs"])[:1]
    mix.register_oracles(matroid, [e["instance"] for e in rounds[0]])
    pkg = types.SimpleNamespace(cce=cce, cli=cli, jsonio=jsonio, lp=lp, matroid=matroid, persuasion=persuasion)
    bench = workloads.Bench(pkg=pkg, refs=refs, rounds=rounds, src="src", work=str(tmp_path))
    units = workloads.build(workload, bench)
    assert sum(len(u) for u in units) == workloads.pass_sizes(rounds[0])[workload]
