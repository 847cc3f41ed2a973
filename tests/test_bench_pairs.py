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
