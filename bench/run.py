"""combisig benchmark.

    python3 bench/run.py --workload {full-lp,catalog,relaxed,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The seed picks the instance mix
(``mix.py``); the package is imported from ``src/`` of the same checkout.

``--trace 0`` measures the end-to-end metrics: a closed loop with one
client runs the workload's units back to back for about S seconds, then
every output is checked against ``refs.json`` and the benchmark's own
recomputations.  ``--trace 1`` runs one untraced pass and one traced pass
over the workload's operations and reports the per-layer metrics, the
tracing overhead and the tracer self-check.  Both print a metadata line and
then, as the last stdout line, the result object.  Without a ``src/combisig``
package the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
import workloads  # noqa: E402
from measure import OpTimeout, SpeedGauge, deadline, min_samples, now, percentile, run_child  # noqa: E402

OP_TIMEOUT = 60.0  # seconds; a timed-out operation counts as failed
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
# The 80th percentile needs 50 samples to have 10 beyond it; a run on a slow
# machine goes on past --seconds until it has them.
MIN_SAMPLES = min_samples(0.8, 10)
MODULES = ("cce", "cli", "jsonio", "lp", "matroid", "persuasion")


@dataclass(slots=True)
class Sample:
    op: workloads.Op
    seconds: float
    output: object
    error: Exception | None


def run_op(op) -> Sample:
    start = now()
    try:
        with deadline(OP_TIMEOUT):
            output = op.run()
    except OpTimeout as exc:
        return Sample(op, now() - start, None, exc)
    except Exception as exc:  # any failure of the program under test is a result
        return Sample(op, now() - start, None, exc)
    return Sample(op, now() - start, output, None)


def closed_loop(units, seconds: float, min_ops: int = 0, gauge: SpeedGauge | None = None):
    """Run whole units back to back; start another only if it is expected to
    end within ``seconds``, or while fewer than ``min_ops`` operations ran.
    Between operations the gauge samples the machine's speed."""
    samples: list[Sample] = []
    unit_times: list[float] = []
    start = now()
    k = 0
    while True:
        elapsed = now() - start
        if unit_times and elapsed + statistics.fmean(unit_times) > seconds and len(samples) >= min_ops:
            return samples, elapsed
        began = now()
        for op in units[k % len(units)]:
            samples.append(run_op(op))
            if gauge:
                gauge.tick()
        unit_times.append(now() - began)
        k += 1


def verify(samples: list[Sample]) -> dict[int, str]:
    """Check every output after the timer stops: sample index -> failure reason."""
    failures = {}
    for index, s in enumerate(samples):
        if s.error is not None:
            reason = f"{type(s.error).__name__}: {s.error}"
        else:
            try:
                reason = s.op.check(s.output)
            except Exception as exc:  # a malformed output is a wrong output
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[index] = f"{s.op.label}: {reason}"
    return failures


def child_seconds(argv: list[str], work: str, repeats: int, gauge: SpeedGauge | None = None) -> float:
    """Median over fresh processes of the seconds each one reports; a gauge
    samples the machine's speed before each."""
    values = []
    for _ in range(repeats):
        if gauge:
            gauge.sample()
        with deadline(OP_TIMEOUT):
            res = run_child(argv, dict(os.environ), os.path.join(work, "setup.out"), os.path.join(work, "setup.err"))
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-300:]}")
        values.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def metadata(args, rounds, root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "mix_digest": mix.mix_digest(rounds),
        "instance_digests": [[e["digest"] for e in entries] for entries in rounds],
        "ops_per_round": workloads.pass_sizes(rounds[0]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


def timed(units, args, gauge: SpeedGauge, setup_s: float, meta: dict) -> dict:
    gc.collect()
    samples, elapsed = closed_loop(units, args.seconds, MIN_SAMPLES, gauge)
    failures = verify(samples)
    factor = gauge.factor()
    nominal = [s.seconds * factor for s in samples]
    # A failed operation misses any latency limit.
    latencies = [max(t, OP_TIMEOUT) if i in failures else t for i, t in enumerate(nominal)]
    p50, _ = percentile(latencies, 0.5)
    p80, beyond = percentile(latencies, 0.8)
    if args.workload == "cli":
        rss = max((s.output.max_rss_mb for s in samples if s.output is not None), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = len(samples) - len(failures)
    meta.update(
        elapsed_s=elapsed,
        latency_samples=len(samples),
        beyond_p80=beyond,
        failures=list(failures.values())[:20],
        wall={
            "ops_per_s": ok / sum(s.seconds for s in samples),
            "latency_s.p50": percentile([s.seconds for s in samples], 0.5)[0],
            "latency_s.p80": percentile([s.seconds for s in samples], 0.8)[0],
            "setup_s": setup_s,
            "speed_factor": factor,
        },
    )
    metrics = {
        "ops_per_s": (ok / sum(nominal), "1/s"),
        "latency_s.p50": (p50, "s"),
        "latency_s.p80": (p80, "s"),
        "setup_s": (setup_s * factor, "s"),
        "peak_rss_mb": (rss, "MiB"),
        "success_rate": (ok / len(samples), "ratio"),
    }
    return {"attempted": len(samples), "failed": len(failures), "metrics": metrics}


def traced(bench, units, args, work: str, meta: dict) -> dict:
    from tracer import Tracer, layer_metrics

    bench.in_process = True
    ops = [op for unit in units for op in unit]
    gc.collect()
    start = now()
    plain = [run_op(op) for op in ops]
    untraced_s = now() - start

    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = now()
        spanned = []
        for index, op in enumerate(ops):
            tracer.op = index
            spanned.append(run_op(op))
        traced_s = now() - start
    finally:
        tracer.uninstall()
    failures = list(verify(plain).values()) + list(verify(spanned).values())
    metrics, check = layer_metrics(tracer)
    import_s = 0.0
    if args.workload == "cli":
        import_s = child_seconds(
            [sys.executable, str(HERE / "setup_child.py"), bench.src, "--import-cli"], work, IMPORT_REPEATS
        )
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead"] = (untraced_s / traced_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.self_check_mismatches"] = (len(check["mismatches"]), "count")
    traces = HERE / "_traces"
    traces.mkdir(exist_ok=True)
    span_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(span_file))
    meta.update(
        untraced_pass_s=untraced_s,
        traced_pass_s=traced_s,
        self_check=check,
        span_file=str(span_file.relative_to(HERE.parent)),
        failures=failures[:20],
    )
    attempted = len(plain) + len(spanned)
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "combisig" / "__init__.py").is_file():
        print(f"error: no combisig package under {src}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(src))
    pkg = types.SimpleNamespace(**{m: importlib.import_module(f"combisig.{m}") for m in MODULES})
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)

    rounds = mix.build(args.seed, refs["costs"])
    mix.register_oracles(pkg.matroid, [e["instance"] for entries in rounds for e in entries])
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        meta = metadata(args, rounds, root)
        if args.trace:
            # One untraced and one traced pass over the first round.
            bench = workloads.Bench(pkg=pkg, refs=refs, rounds=rounds[:1], src=str(src), work=str(work))
            result = traced(bench, workloads.build(args.workload, bench), args, str(work), meta)
        else:
            bench = workloads.Bench(pkg=pkg, refs=refs, rounds=rounds, src=str(src), work=str(work))
            inputs_path = work / "inputs.json"
            inputs_path.write_text(json.dumps(workloads.inputs(args.workload, bench)), encoding="utf-8")
            gauge = SpeedGauge()
            setup_s = child_seconds(
                [sys.executable, str(HERE / "setup_child.py"), str(src), str(inputs_path)],
                str(work),
                SETUP_REPEATS,
                gauge,
            )
            result = timed(workloads.build(args.workload, bench), args, gauge, setup_s, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
