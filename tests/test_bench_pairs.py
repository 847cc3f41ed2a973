"""``scripts/bench_pairs.py``: the verdict fields on synthetic runs, and the
environment each benchmark run gets."""

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "latency_s.p50": "lower"}
BOUNDS = {"ops_per_s": 0.25, "latency_s.p50": 0.1}


def end_to_end(bounds: dict = BOUNDS) -> list[dict]:
    return [{"name": name, "better": BETTER[name], "bound": bounds[name]} for name in BETTER]


def run(ops: float, p50: float) -> dict:
    metrics = {"ops_per_s": (ops, "1/s"), "latency_s.p50": (p50, "s"), "lp.pivots": (7, "count")}
    return {"result": {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}


def pairs_of(ref: list[tuple], change: list[tuple]) -> list[dict]:
    return [{"ref": run(*r), "change": run(*c)} for r, c in zip(ref, change)]


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    ref = [(10, 0.5), (10, 0.5), (10, 0.5), (10, 0.5)]
    change = [(12, 0.4), (10, 0.5), (9, 0.6), (11, 0.5)]
    verdict = bench_pairs.judge(pairs_of(ref, change), end_to_end())
    assert verdict["wins"] == {"ops_per_s": 2, "latency_s.p50": 1}
    assert set(verdict["gap_exceeds_ref_iqr"]) == set(BETTER)  # per-layer counts are not judged
    assert verdict["change_over_ref"]["ops_per_s"] == 10.5 / 10


def test_gap_must_exceed_the_refs_quartile_spread():
    # ref ops_per_s 8..12 (quartiles 8.5 and 11.5, spread 3), median 10
    ref = [(8, 0.5), (9, 0.5), (10, 0.5), (11, 0.5), (12, 0.5)]
    near = pairs_of(ref, [(v + 2, 0.5) for v, _ in ref])  # medians 2 apart
    far = pairs_of(ref, [(v + 4, 0.1) for v, _ in ref])  # medians 4 apart
    assert bench_pairs.judge(near, end_to_end())["gap_exceeds_ref_iqr"] == {"ops_per_s": False, "latency_s.p50": False}
    assert bench_pairs.judge(far, end_to_end())["gap_exceeds_ref_iqr"] == {"ops_per_s": True, "latency_s.p50": True}
    assert bench_pairs.judge(far, end_to_end())["wins"] == {"ops_per_s": 5, "latency_s.p50": 5}


def test_bound_verdict_measures_the_loss_against_each_metrics_bound():
    """The change's median loss as a share of the ref's, in each metric's
    direction, is beyond its bound only when larger; gains are negative
    losses."""
    ref = [(10, 0.50), (10, 0.50), (10, 0.50)]
    within = bench_pairs.judge(pairs_of(ref, [(8, 0.54)] * 3), end_to_end())["bounds"]
    assert within["ops_per_s"] == {"bound": 0.25, "worse_by": 0.2, "beyond": False}
    assert within["latency_s.p50"]["beyond"] is False
    assert abs(within["latency_s.p50"]["worse_by"] - 0.08) < 1e-12
    beyond = bench_pairs.judge(pairs_of(ref, [(7, 0.56)] * 3), end_to_end())["bounds"]
    assert {name: v["beyond"] for name, v in beyond.items()} == {"ops_per_s": True, "latency_s.p50": True}
    assert abs(beyond["ops_per_s"]["worse_by"] - 0.3) < 1e-12
    gain = bench_pairs.judge(pairs_of(ref, [(15, 0.25)] * 3), end_to_end())["bounds"]
    assert gain["ops_per_s"]["worse_by"] == -0.5 and gain["latency_s.p50"]["worse_by"] == -0.5
    assert not any(v["beyond"] for v in gain.values())
    loose = bench_pairs.judge(pairs_of(ref, [(7, 0.56)] * 3), end_to_end({"ops_per_s": 0.5, "latency_s.p50": 0.2}))
    assert not any(v["beyond"] for v in loose["bounds"].values())
    from_zero = bench_pairs.judge(pairs_of([(0, 0.5)], [(0, 0.5)]), end_to_end())["bounds"]
    assert from_zero["ops_per_s"] == {"bound": 0.25, "worse_by": 0.0, "beyond": False}
    lost_from_zero = bench_pairs.judge(pairs_of([(10, 0)], [(10, 0.1)]), end_to_end())["bounds"]
    assert lost_from_zero["latency_s.p50"] == {"bound": 0.1, "worse_by": None, "beyond": True}


def test_both_sides_run_without_a_bytecode_cache(monkeypatch, tmp_path):
    """Neither side writes bytecode, and neither hides the standard
    library's cache behind a ``PYTHONPYCACHEPREFIX``, not even one set by
    the caller."""
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(kwargs)
        lines = [json.dumps({"seed": 1}), json.dumps({"metrics": {}})]
        return subprocess.CompletedProcess(argv, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "pycache"))
    for root in (tmp_path / "tree", tmp_path / "change"):
        out = bench_pairs.run_bench(root, "cli", 1, 0.5)
        assert out == {"meta": {"seed": 1}, "result": {"metrics": {}}}
    assert [c["cwd"] for c in calls] == [tmp_path / "tree", tmp_path / "change"]
    for kwargs in calls:
        assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in kwargs["env"]
    assert bench_pairs.bytecode_env() == {"PYTHONDONTWRITEBYTECODE": "1"}


def test_the_change_side_runs_from_a_clean_export(monkeypatch, tmp_path):
    """The export holds the working tree's edits and new files, and no
    ignored output such as a stale ``__pycache__``."""
    repo = tmp_path / "repo"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("old\n")
    (repo / "src" / "gone.py").write_text("x\n")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("new\n")
    (repo / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"stale")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.export_worktree(tmp_path / "change")
    exported = sorted(str(f.relative_to(tmp_path / "change")) for f in (tmp_path / "change").rglob("*") if f.is_file())
    assert exported == [".gitignore", "src/kept.py", "src/new.py"]
    assert (tmp_path / "change" / "src" / "kept.py").read_text() == "edited\n"


def test_verdict_lines_flag_metrics_beyond_their_bound_and_incorrect_runs():
    ref = [(10, 0.50), (10, 0.50), (10, 0.50)]
    pairs = pairs_of(ref, [(7, 0.52), (7, 0.52), (8, 0.52)])
    pairs[1]["change"]["result"].update(correct=False, attempted=40, failed=3)
    pairs[2]["ref"]["result"].update(correct=True, attempted=40, failed=0)
    lines = bench_pairs.verdict_lines(bench_pairs.judge(pairs, end_to_end()), pairs)
    assert lines == [
        "ops_per_s: change/ref 0.700, won 0/3, worse_by +0.300 (bound 0.25) BEYOND BOUND",
        "latency_s.p50: change/ref 1.040, won 0/3, worse_by +0.040 (bound 0.1)",
        "pair 1 change: NOT CORRECT, 3 of 40 outputs failed",
    ]
    from_zero = pairs_of([(10, 0)], [(10, 0.1)])
    assert bench_pairs.verdict_lines(bench_pairs.judge(from_zero, end_to_end()), from_zero)[1] == (
        "latency_s.p50: change/ref n/a, won 0/1, worse_by n/a (bound 0.1) BEYOND BOUND"
    )


def test_main_prints_the_verdict_after_writing_the_file(monkeypatch, tmp_path, capsys):
    """Every end-to-end metric of ``BENCHMARK.json`` gets its line on stderr,
    once the BENCH file is written."""
    spec = {"end_to_end": end_to_end()}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = iter([run(10, 0.5), run(15, 0.4), run(16, 0.4), run(10, 0.5)])
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda into: None)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: next(runs))
    argv = ["--ref", "HEAD", "--workload", "catalog", "--pairs", "2", "--seed", "1", "--seconds", "1", "--tag", "t"]
    assert bench_pairs.main(argv) == 0
    out, err = capsys.readouterr()
    written = tmp_path / "BENCH_catalog_t.json"
    assert out.strip() == str(written)
    assert json.loads(written.read_text())["wins"] == {"ops_per_s": 2, "latency_s.p50": 2}
    assert err.splitlines()[-2:] == [
        "ops_per_s: change/ref 1.550, won 2/2, worse_by -0.550 (bound 0.25)",
        "latency_s.p50: change/ref 0.800, won 2/2, worse_by -0.200 (bound 0.1)",
    ]
