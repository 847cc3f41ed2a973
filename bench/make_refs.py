"""Regenerate ``refs.json``: exact reference values and pool costs.

    python3 bench/make_refs.py

Run from the root of a checkout.  For every pool entry (each slot of
``mix.SLOTS`` times ``mix.VARIANTS``) it records, keyed by instance digest,
the ``solve_full`` value and the ``solve_cce_exact`` value that the checks
compare against, and, keyed by ``slot/variant``, the seconds that
``solve_full``, ``solve_reduced``, ``solve_cce_approx`` and
``make_view`` + ``solve_cce_exact`` took here.  ``mix.eligible`` uses those
seconds only to pick which variants of a slot a seed may draw.  It also
records the values and digests the CLI tour checks for the bundled
instances and ``gen`` targets.  References are facts about the package at
the commit that produced them; regenerate them only in a change that is
allowed to change the benchmark.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mix  # noqa: E402
import workloads  # noqa: E402
from combisig import cce, jsonio, matroid, persuasion, reductions  # noqa: E402


def _rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _timed(fn, repeats: int = 1):
    """The result and the fastest of ``repeats`` timings."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, round(best, 5)


def main() -> int:
    instances: dict[str, dict] = {}
    costs: dict[str, list[float]] = {}
    for slot_index, slot in enumerate(mix.SLOTS):
        for v in range(mix.VARIANTS):
            raw = mix.variant(slot_index, v)
            mix.register_oracles(matroid, [raw])
            inst = jsonio.instance_from_json(raw)
            key = mix.digest(raw)
            if jsonio.instance_digest(inst) != key:
                raise SystemExit(f"digest mismatch for slot {slot_index} variant {v}")
            entry, cost = {}, [0.0, 0.0, 0.0, 0.0]
            if slot["family"] != "coverage":
                full, cost[0] = _timed(lambda: persuasion.solve_full(inst), 2)
                entry["full"] = _rat(full.sender_value)
                _, cost[3] = _timed(lambda: cce.solve_cce_exact(cce.make_view(inst)), 3)
            if slot["family"] == "matroid":
                _, cost[1] = _timed(lambda: persuasion.solve_reduced(inst), 2)
            entry["cce"] = _rat(cce.solve_cce_exact(cce.make_view(inst)).sender_value)
            if workloads.approx_oracle(slot):
                view = cce.make_view(inst, oracle=workloads.approx_oracle(slot), epsilon=workloads.EPSILON)
                _, cost[2] = _timed(lambda: cce.solve_cce_approx(view))
            instances[key] = entry
            costs[f"{slot_index}/{v}"] = cost
            print(slot_index, v, cost, flush=True)

    for path in workloads.BUNDLED:
        raw = jsonio.load_json(path)
        inst = jsonio.instance_from_json(raw)
        entry = {
            "full": _rat(persuasion.solve_full(inst).sender_value),
            "cce": _rat(cce.solve_cce_exact(cce.make_view(inst)).sender_value),
        }
        if raw["constraint"]["kind"] != "path":
            entry["reduced"] = _rat(persuasion.solve_reduced(inst).sender_value)
        instances[jsonio.instance_digest(inst)] = entry

    gen = {}
    for spec_path, source, target in workloads.GEN_TARGETS:
        raw = jsonio.load_json(spec_path)
        if source == "lineq":
            inst = reductions.TARGETS[target](jsonio.lineq_spec_from_json(raw))
        else:
            inst = reductions.gen_partition_from_public(jsonio.public_spec_from_json(raw))
        gen[f"{source}:{target}"] = jsonio.instance_digest(inst)

    out = {"instances": instances, "gen": gen, "costs": costs}
    (HERE / "refs.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
