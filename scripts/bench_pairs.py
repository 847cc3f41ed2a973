#!/usr/bin/env python3
"""Run the benchmark on a git ref and on the working tree, in alternating pairs.

    python3 scripts/bench_pairs.py --ref HEAD~1 --workload full-lp --pairs 5 \\
        --seed 6101 --seconds 30 --tag pr

Run from the root of the repository.  The ref is extracted with ``git
archive`` into a temporary directory, and the working tree is exported
beside it: its tracked and unignored files, so no ``__pycache__`` or other
ignored output comes along.  Each side runs its own ``bench/run.py``
(``--trace 0``) from its own root, so both measure the same benchmark only
when the ref's ``bench/`` matches the working tree's.  Pair ``k`` runs the
ref first when ``k`` is even and the working tree first when it is odd; its
seed is ``--seed + k``.  Both sides run with ``PYTHONDONTWRITEBYTECODE=1``
and without ``PYTHONPYCACHEPREFIX``: each compiles the package's modules
on every start, as neither fresh tree has their bytecode, while the
standard library's cache is read, as in a user's process.  The result goes to
``BENCH_<workload>_<tag>.json``: the settings (the bytecode ones among them), both output lines of every
run, each side's median and quartiles of every metric and, for every
end-to-end metric of ``BENCHMARK.json``, the change/ref ratio of the
medians, the pairs the change wins in the direction that file gives (ties
count for neither side), whether the medians differ by more than the
ref's quartile spread, and how far the change's median is worse than the
ref's, as a share of the ref's, against that metric's ``bound``.  A gain may
be claimed only when the change wins at least nine tenths of the pairs and
that spread is exceeded; a metric worse by more than its bound fails the
benchmark.  After writing the file the script prints that verdict on
stderr, one line per end-to-end metric, and flags each metric beyond its
bound and each run whose outputs were not all correct.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(ref: str, into: Path) -> str:
    """Unpack ``ref`` under ``into``; returns its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = into / "ref.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return commit


def export_worktree(into: Path) -> None:
    """Copy the working tree's tracked and unignored files under ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def bytecode_env() -> dict[str, str]:
    """Write no compiled bytecode; the fresh trees then never have any."""
    return {"PYTHONDONTWRITEBYTECODE": "1"}


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, env=dict(env, **bytecode_env()),
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench/run.py failed in {root} (exit {done.returncode}):\n{done.stderr}")
    return {"meta": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the runs."""
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = sorted(r["result"]["metrics"][name]["value"] for r in runs)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "unit": names[name]["unit"]}
    return out


def judge(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, change/ref ratios, wins, the quartile test and the bound
    test of ``pairs``; ``end_to_end`` lists the metrics as ``BENCHMARK.json``
    does, each with its direction ``better`` ("higher" or "lower") and its
    ``bound``, the share of the ref's median by which the change's may be
    worse."""
    medians = {side: summary([p[side] for p in pairs]) for side in ("ref", "change")}
    ref = medians["ref"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    names = [name for name in better if name in ref]

    def gain(pair: dict, name: str) -> float:
        values = {side: pair[side]["result"]["metrics"][name]["value"] for side in ("ref", "change")}
        gap = values["change"] - values["ref"]
        return gap if better[name] == "higher" else -gap

    def worse_by(name: str) -> float | None:
        """The change's loss over the ref's median; None for a loss from a zero median."""
        base = ref[name]["median"]
        loss = base - medians["change"][name]["median"]
        loss = loss if better[name] == "higher" else -loss
        if not base:
            return None if loss > 0 else 0.0
        return loss / abs(base)

    losses = {name: worse_by(name) for name in names}
    return {
        "medians": medians,
        "change_over_ref": {
            name: medians["change"][name]["median"] / m["median"] if m["median"] else None
            for name, m in ref.items()
        },
        "wins": {name: sum(1 for p in pairs if gain(p, name) > 0) for name in names},
        "gap_exceeds_ref_iqr": {
            name: abs(medians["change"][name]["median"] - ref[name]["median"]) > ref[name]["q3"] - ref[name]["q1"]
            for name in names
        },
        "bounds": {
            name: {"bound": bounds[name], "worse_by": loss, "beyond": loss is None or loss > bounds[name]}
            for name, loss in losses.items()
        },
    }


def verdict_lines(verdict: dict, pairs: list[dict]) -> list[str]:
    """The verdict in words: one line per end-to-end metric (its change/ref
    ratio, the pairs won and its loss against its bound, flagged when beyond
    it), then one line per run whose outputs were not all correct."""
    lines = []
    for name, test in verdict["bounds"].items():
        ratio, loss = verdict["change_over_ref"][name], test["worse_by"]
        lines.append(
            f"{name}: change/ref {'n/a' if ratio is None else f'{ratio:.3f}'}, "
            f"won {verdict['wins'][name]}/{len(pairs)}, "
            f"worse_by {'n/a' if loss is None else f'{loss:+.3f}'} (bound {test['bound']})"
            + (" BEYOND BOUND" if test["beyond"] else "")
        )
    for k, pair in enumerate(pairs):
        for side in ("ref", "change"):
            result = pair[side]["result"]
            if result.get("correct") is False:
                failed, attempted = result["failed"], result["attempted"]
                lines.append(f"pair {k} {side}: NOT CORRECT, {failed} of {attempted} outputs failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair k uses seed + k")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<workload>_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        commit = extract(args.ref, Path(tmp))
        export_worktree(Path(tmp) / "change")
        sides = {"ref": Path(tmp) / "tree", "change": Path(tmp) / "change"}
        pairs = []
        for k in range(args.pairs):
            order = ["ref", "change"] if k % 2 == 0 else ["change", "ref"]
            pair = {"seed": args.seed + k, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], args.workload, args.seed + k, args.seconds)
                value = pair[side]["result"]["metrics"]["ops_per_s"]["value"]
                print(f"pair {k} {side}: ops_per_s {value}", file=sys.stderr)
            pairs.append(pair)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "workload": args.workload,
        "ref": args.ref,
        "ref_commit": commit,
        "seconds": args.seconds,
        "env": bytecode_env(),
        "seeds": [p["seed"] for p in pairs],
        "pairs": pairs,
        **judge(pairs, spec["end_to_end"]),
    }
    out = ROOT / f"BENCH_{args.workload}_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    for line in verdict_lines(report, pairs):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
