"""The four workloads: their operations, the order they run in, and the
check applied to each output after the timer stops.

A workload is a list of units; the timed loop only stops between units.
For ``full-lp`` and ``catalog`` a unit is a whole pass over every round of
the mix, so every measured window covers the mix evenly; for ``cli`` it is
the commands on one instance file, or the four ``gen`` commands.  A
``relaxed`` unit holds one approximate and three exact solves from each
round, so each window keeps the quarter share of approximate solves
whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mix
from measure import ChildResult, run_child

WORKLOADS = ("full-lp", "catalog", "relaxed", "cli")
EPSILON = Fraction(1, 10)
APPROX_MAX_N = 4  # 2-state approximate solves average 1.8 s at n <= 4, 3 s at n = 5

BUNDLED = (
    "instances/two_state_toy.json",
    "instances/weather_pair.json",
    "instances/route_min.json",
)
GEN_TARGETS = (
    ("instances/lineq_demo.json", "lineq", "uniform"),
    ("instances/lineq_demo.json", "lineq", "graphic"),
    ("instances/lineq_demo.json", "lineq", "path"),
    ("instances/public_demo.json", "public", "partition"),
)
# Mix slots whose instances the CLI tour also solves from JSON files; the
# oracle kind is left out because a CLI process has no registered callable.
CLI_SLOTS = (
    {"family": "matroid", "kind": "uniform", "n": 4, "states": 2},
    {"family": "matroid", "kind": "partition", "n": 5, "states": 3},
    {"family": "matroid", "kind": "graphic", "n": 4, "states": 3},
    {"family": "matroid", "kind": "uniform", "n": 5, "states": 2},
    {"family": "path", "layers": 2, "width": 2, "states": 2},
)


def approx_oracle(slot: dict) -> str | None:
    """The oracle a slot's approximate solve uses, or None if it has none."""
    if slot["family"] == "coverage":
        return "half-greedy"
    if slot["family"] == "matroid" and slot["states"] == 2 and slot["n"] <= APPROX_MAX_N:
        return "exact"
    return None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    slot: int = -1  # mix slot of the instance, if any


@dataclass
class Bench:
    """What the operations need: package modules, inputs, references, files."""

    pkg: object  # namespace with the combisig modules as attributes
    refs: dict
    rounds: list[list[dict]]  # mix.build
    src: str
    work: str
    in_process: bool = False  # run CLI commands through cli.main, not a child
    parsed: dict = field(default_factory=dict)  # digest -> Instance

    def instance(self, raw: dict):
        key = mix.digest(raw)
        if key not in self.parsed:
            self.parsed[key] = self.pkg.jsonio.instance_from_json(raw)
        return self.parsed[key]

    def ref(self, key: str, what: str) -> Fraction | None:
        value = self.refs["instances"].get(key, {}).get(what)
        return None if value is None else Fraction(value)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def sender_value(raw: dict, phi) -> Fraction:
    """The scheme's expected sender utility, recomputed from the instance JSON."""
    prior = [Fraction(str(p)) for p in raw["prior"]]
    sender = raw["sender"]
    total = Fraction(0)
    for (t, action), p in phi.items():
        if sender["kind"] == "linear":
            u = sum((Fraction(str(sender["rows"][t][e])) for e in action), Fraction(0))
        else:
            u = Fraction(str(sender["tables"][t][",".join(str(e) for e in action)]))
        total += prior[t] * p * u
    return total


def _expect_value(bench: Bench, key: str, what: str, got) -> str | None:
    want = bench.ref(key, what)
    if want is None:
        return f"no {what} reference for instance {key[:12]}"
    if Fraction(str(got)) != want:
        return f"{what} value {got} != reference {want}"
    return None


def _full_check(bench: Bench, entry: dict):
    def check(result) -> str | None:
        wrong = _expect_value(bench, entry["digest"], "full", result.sender_value)
        if wrong:
            return wrong
        if sender_value(entry["instance"], result.scheme.phi) != result.sender_value:
            return "returned value differs from the scheme's recomputed sender value"
        return None

    return check


def _approx_check(bench: Bench, entry: dict, alpha: Fraction):
    def check(result) -> str | None:
        opt = bench.ref(entry["digest"], "cce")
        if opt is None:
            return f"no cce reference for instance {entry['digest'][:12]}"
        if not (alpha - EPSILON) * opt <= result.sender_value <= opt:
            return f"approximate value {result.sender_value} outside [{alpha - EPSILON}*{opt}, {opt}]"
        return None

    return check


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _full_lp(bench: Bench, entries: list[dict]) -> list[list[Op]]:
    ops = []
    for e in entries:
        if e["family"] in ("matroid", "path"):
            inst = bench.instance(e["instance"])
            ops.append(
                Op(f"solve_full/{e['slot']}", lambda i=inst: bench.pkg.persuasion.solve_full(i), _full_check(bench, e))
            )
    return [ops]


def _catalog(bench: Bench, entries: list[dict]) -> list[list[Op]]:
    ops = []
    for e in entries:
        if e["family"] == "matroid":
            inst = bench.instance(e["instance"])

            def check(result, key=e["digest"]):
                return _expect_value(bench, key, "full", result.sender_value)

            ops.append(
                Op(f"solve_reduced/{e['slot']}", lambda i=inst: bench.pkg.persuasion.solve_reduced(i), check)
            )
    return [ops]


def _relaxed(bench: Bench, entries: list[dict]) -> list[list[Op]]:
    cce = bench.pkg.cce
    exact = []
    approx: dict[str, list[Op]] = {"exact": [], "half-greedy": []}
    for e in entries:
        inst = bench.instance(e["instance"])
        if e["family"] != "coverage":

            def check(result, key=e["digest"]):
                return _expect_value(bench, key, "cce", result.sender_value)

            exact.append(
                Op(f"solve_cce_exact/{e['slot']}", lambda i=inst: cce.solve_cce_exact(cce.make_view(i)), check)
            )
        oracle = approx_oracle(e)
        if oracle:
            approx[oracle].append(
                Op(
                    f"solve_cce_approx/{e['slot']}",
                    lambda i=inst, o=oracle: cce.solve_cce_approx(cce.make_view(i, oracle=o, epsilon=EPSILON)),
                    _approx_check(bench, e, Fraction(1, 2) if oracle == "half-greedy" else Fraction(1)),
                    e["slot"],
                )
            )
    # Alternate matroid and coverage approximate solves, n = 3 and n = 4, and
    # deal the exact solves round-robin, so every prefix of units mixes sizes.
    matroid = sorted(approx["exact"], key=lambda op: (op.slot % len(mix.KINDS), op.slot))
    units = [[op] for pair in zip(matroid, approx["half-greedy"]) for op in pair]
    for k, op in enumerate(exact):
        units[k % len(units)].append(op)
    return units


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _cli_run(bench: Bench, argv: list[str]):
    def run() -> ChildResult:
        if bench.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bench.pkg.cli.main(argv)
            return ChildResult(code, out.getvalue(), err.getvalue(), 0.0)
        env = dict(os.environ, PYTHONPATH=bench.src)
        return run_child(
            [sys.executable, "-m", "combisig.cli", *argv],
            env,
            os.path.join(bench.work, "cli.out"),
            os.path.join(bench.work, "cli.err"),
        )

    return run


def _cli_check(expect: Callable[[dict], str | None]):
    def check(result: ChildResult) -> str | None:
        if result.returncode != 0:
            return f"exit code {result.returncode}: {result.stderr.strip()[-200:]}"
        try:
            report = json.loads(result.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "report is not JSON"
        return expect(report)

    return check


def _expect_digest(key: str, then=None):
    def expect(report: dict) -> str | None:
        if report.get("digest") != key:
            return f"digest {report.get('digest')} != {key}"
        return then(report) if then else None

    return expect


def cli_files(bench: Bench, entries: list[dict]) -> list[tuple[str, dict]]:
    """(path, instance JSON) of every instance file the tour reads."""
    files = []
    for path in BUNDLED:
        with open(path, encoding="utf-8") as fh:
            files.append((path, json.load(fh)))
    for params in CLI_SLOTS:
        entry = next(e for e in entries if all(e.get(k) == v for k, v in params.items()))
        path = os.path.join(bench.work, f"slot{entry['slot']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry["instance"], fh)
        files.append((path, entry["instance"]))
    return files


def _cli(bench: Bench, entries: list[dict]) -> list[list[Op]]:
    pkg = bench.pkg
    units = []
    for path, raw in cli_files(bench, entries):
        ops = []
        inst = bench.instance(raw)
        key = mix.digest(raw)
        scheme_path = os.path.join(bench.work, os.path.basename(path) + ".scheme.json")
        pkg.jsonio.save_json(
            scheme_path, pkg.jsonio.scheme_to_json(pkg.persuasion.solve_full(inst).scheme, key)
        )
        modes = ["full", "cce"]
        commands = []
        if raw["constraint"]["kind"] != "path":
            modes.insert(1, "reduced")
            commands.append(["enumerate", path])
        for mode in modes:
            # Only the bundled, possibly degenerate, instances have a
            # separate reduced reference; on clean instances it is the full one.
            what = mode if mode in bench.refs["instances"].get(key, {}) else "full"

            def value(report, key=key, what=what):
                return _expect_value(bench, key, what, report["value"])

            ops.append(
                Op(
                    f"cli solve --mode {mode} {path}",
                    _cli_run(bench, ["solve", path, "--mode", mode]),
                    _cli_check(_expect_digest(key, value)),
                )
            )
        commands.append(["check-nondegeneracy", path])
        for argv in commands:
            ops.append(Op(f"cli {argv[0]} {path}", _cli_run(bench, argv), _cli_check(_expect_digest(key))))

        def persuasive(report, key=key):
            if report.get("persuasive") is not True:
                return "validate reports a scheme that is not persuasive"
            return _expect_value(bench, key, "full", report["exact_value"])

        ops.append(
            Op(
                f"cli validate {path}",
                _cli_run(bench, ["validate", path, scheme_path]),
                _cli_check(_expect_digest(key, persuasive)),
            )
        )
        units.append(ops)
    ops = []
    for spec, source, target in GEN_TARGETS:
        key = bench.refs["gen"][f"{source}:{target}"]

        def emitted(report):
            if mix.digest(report["instance"]) != report["digest"]:
                return "gen digest does not match the emitted instance"
            return None

        ops.append(
            Op(
                f"cli gen {source} {target}",
                _cli_run(bench, ["gen", spec, "--from", source, "--target", target]),
                _cli_check(_expect_digest(key, emitted)),
            )
        )
    units.append(ops)
    return units


BUILDERS = {"full-lp": _full_lp, "catalog": _catalog, "relaxed": _relaxed, "cli": _cli}


def build(workload: str, bench: Bench) -> list[list[Op]]:
    """The workload's units; each joins the same unit of every round.

    A run then meets both eligible variants of every slot it reaches, so its
    composition does not depend on how the seed split them.  The CLI tour
    reads its mix instances from the first round only."""
    if workload == "cli":
        return _cli(bench, bench.rounds[0])
    per_round = [BUILDERS[workload](bench, entries) for entries in bench.rounds]
    return [[op for unit in units for op in unit] for units in zip(*per_round)]


def inputs(workload: str, bench: Bench) -> list[dict]:
    """The instance JSON a workload loads at set-up."""
    if workload == "cli":
        return [raw for _, raw in cli_files(bench, bench.rounds[0])]
    families = {"full-lp": ("matroid", "path"), "catalog": ("matroid",)}.get(
        workload, ("matroid", "path", "coverage")
    )
    return [e["instance"] for entries in bench.rounds for e in entries if e["family"] in families]


def pass_sizes(entries: list[dict]) -> dict[str, int]:
    """Operations over one round of each workload, for the run metadata."""
    count = {f: sum(1 for e in entries if e["family"] == f) for f in ("matroid", "path", "coverage")}
    approx = sum(1 for e in entries if approx_oracle(e))
    max_files = 2 + sum(1 for p in CLI_SLOTS if p["family"] == "matroid")
    path_files = 1 + sum(1 for p in CLI_SLOTS if p["family"] == "path")
    return {
        "full-lp": count["matroid"] + count["path"],
        "catalog": count["matroid"],
        "relaxed": count["matroid"] + count["path"] + approx,
        "cli": 6 * max_files + 4 * path_files + len(GEN_TARGETS),
    }
