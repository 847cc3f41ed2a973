"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that binds it: the defining module, every package module that
imported it by name (``from .model import expected_value``), the package's
re-exports, and dict tables such as ``cli.COMMANDS`` or
``reductions.TARGETS``.  Calls through any of those names are recorded.
A span is ``[name, start, end, parent, op, result]``; the result is kept
only where a per-layer count is read from it.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time

# module -> [(function name, span name, keep the result)]
TRACED = {
    "lp": [("solve", "lp.solve", True)],
    "persuasion": [
        ("solve_full", "persuasion.solve_full", True),
        ("solve_reduced", "persuasion.solve_reduced", True),
        ("enumerate_actions", "persuasion.enumerate_actions", True),
    ],
    "arrangement": [
        ("enumerate_cells", "arrangement.enumerate_cells", True),
        ("strict_simplex_point", "arrangement.strict_simplex_point", False),
        ("weak_simplex_point", "arrangement.weak_simplex_point", False),
    ],
    "best_response": [
        ("enumerate_best_responses", "best_response.enumerate_best_responses", True),
        ("check_nondegeneracy", "best_response.check_nondegeneracy", True),
        ("greedy_at_point", "best_response.greedy_at_point", False),
    ],
    "cce": [
        ("make_view", "cce.make_view", False),
        ("solve_cce_exact", "cce.solve_cce_exact", True),
        ("solve_cce_approx", "cce.solve_cce_approx", True),
        ("separation", "cce.separation", False),
    ],
    "matroid": [("max_weight_action", "matroid.max_weight_action", False)],
    "paths": [
        ("shortest_path", "paths.shortest_path", False),
        ("enumerate_paths", "paths.enumerate_paths", False),
    ],
    "model": [("expected_value", "model.expected_value", False)],
    "reductions": [
        ("gen_uniform_from_lineq", "reductions.gen", False),
        ("gen_graphic_from_lineq", "reductions.gen", False),
        ("gen_path_from_lineq", "reductions.gen", False),
        ("gen_partition_from_public", "reductions.gen", False),
    ],
    "jsonio": [
        ("instance_from_json", "jsonio.instance_from_json", False),
        ("dumps_canonical", "jsonio.dumps_canonical", False),
        ("instance_digest", "jsonio.instance_digest", False),
    ],
    "cli": [
        ("cmd_solve", "cli.solve", False),
        ("cmd_enumerate", "cli.enumerate", False),
        ("cmd_validate", "cli.validate", False),
        ("cmd_gen", "cli.gen", False),
        ("cmd_check_nondegeneracy", "cli.check-nondegeneracy", False),
    ],
}

NAME, START, END, PARENT, OP, RESULT = range(6)


class Tracer:
    def __init__(self, package: str = "combisig"):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[dict, str, object]] = []

    # -- installation -------------------------------------------------------

    def _namespaces(self) -> list[dict]:
        found = []
        for name, module in list(sys.modules.items()):
            if module is not None and (name == self.package or name.startswith(self.package + ".")):
                found.append(vars(module))
        return found

    def install(self) -> None:
        for module_name in TRACED:
            try:
                importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                pass  # its functions are reported absent below
        namespaces = self._namespaces()
        for module_name, entries in TRACED.items():
            module = sys.modules.get(f"{self.package}.{module_name}")
            for func_name, span_name, keep in entries:
                original = getattr(module, func_name, None) if module else None
                if not callable(original):
                    self.absent.append(f"{module_name}.{func_name}")
                    continue
                self._bind_everywhere(namespaces, original, self._wrap(span_name, original, keep))
        gc.callbacks.append(self._on_gc)

    def _bind_everywhere(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    ns[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            self._patches.append((value, k2, original))
                            value[k2] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, span_name: str, fn, keep: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                span[RESULT] = result
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_start

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span[:RESULT]]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _ancestor(spans, index: int, prefixes: tuple[str, ...]) -> int | None:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME].startswith(prefixes):
            return parent
        parent = spans[parent][PARENT]
    return None


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer numbers from the spans, and the tracer self-check report."""
    spans = tracer.spans
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]][NAME]
            self_time[parent] = self_time.get(parent, 0.0) - duration

    def results(name):
        return [s[RESULT] for s in spans if s[NAME] == name]

    lp_spans = [i for i, s in enumerate(spans) if s[NAME] == "lp.solve"]
    full_lp: dict[int, list[int]] = {}
    arrangement_lp = cce_lp = 0
    for i in lp_spans:
        if _ancestor(spans, i, ("arrangement.",)) is not None:
            arrangement_lp += 1
        if _ancestor(spans, i, ("cce.",)) is not None:
            cce_lp += 1
        owner = _ancestor(spans, i, ("persuasion.solve_full",))
        if owner is not None:
            full_lp.setdefault(owner, []).append(i)
    separations: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[NAME] == "cce.separation":
            owner = _ancestor(spans, i, ("cce.solve_cce_exact",))
            if owner is not None:
                separations[owner] = separations.get(owner, 0) + 1

    # Self-check: the wrappers must see every LP solve and separation sweep
    # that the solvers count for themselves.
    mismatches, skipped = [], []
    final_pivots = total_pivots = 0
    for owner, span in enumerate(spans):
        if span[NAME] == "persuasion.solve_full":
            stats = span[RESULT].lp_stats
            pivots = [spans[i][RESULT].pivots for i in full_lp.get(owner, [])]
            final_pivots += pivots[-1] if pivots else 0
            total_pivots += sum(pivots)
            observed = (("pivots", sum(pivots)), ("cut_rounds", len(pivots)))
        elif span[NAME] == "cce.solve_cce_exact":
            stats = span[RESULT].lp_stats
            observed = (("cut_rounds", separations.get(owner, 0)),)
        else:
            continue
        for key, seen in observed:
            if key not in stats:
                skipped.append(f"{span[NAME]} lp_stats has no {key!r}")
            elif stats[key] != seen:
                mismatches.append(f"span {owner} {span[NAME]}: {key} {stats[key]} != traced {seen}")

    lp_results = results("lp.solve")
    solves = results("persuasion.solve_full") + results("persuasion.solve_reduced")
    catalogs = results("best_response.enumerate_best_responses")
    cells = sum(len(r) for r in results("arrangement.enumerate_cells"))
    kept = sum(c.num_cells for c in catalogs)

    def stat(results_list, key):
        return sum(r.lp_stats.get(key, 0) for r in results_list)

    metrics = {
        "lp.solve.calls": (calls.get("lp.solve", 0), "count"),
        "lp.solve.s": (busy.get("lp.solve", 0.0), "s"),
        "lp.solve.self_s": (self_time.get("lp.solve", 0.0), "s"),
        "lp.pivots": (sum(r.pivots for r in lp_results), "count"),
        "lp.pivots.final_share": (final_pivots / total_pivots if total_pivots else 0.0, "ratio"),
        "lp.result_bits.max": (
            max(
                (_bits((r.x or []) + ([r.value] if r.value is not None else [])) for r in lp_results),
                default=0,
            ),
            "bits",
        ),
        "persuasion.actions": (sum(len(r) for r in results("persuasion.enumerate_actions")), "count"),
        "persuasion.cut_rounds": (stat(solves, "cut_rounds"), "count"),
        "persuasion.pair_rows": (stat(solves, "pair_rows"), "count"),
        "arrangement.cells": (cells, "count"),
        "arrangement.cells_kept_ratio": (kept / cells if cells else 0.0, "ratio"),
        "arrangement.lp_calls": (arrangement_lp, "count"),
        "best_response.families_checked": (
            sum(r.families_checked for r in results("best_response.check_nondegeneracy")),
            "count",
        ),
        "best_response.catalog_actions": (sum(len(c.actions) for c in catalogs), "count"),
        "cce.cut_rounds": (stat(results("cce.solve_cce_exact"), "cut_rounds"), "count"),
        "cce.ellipsoid_iters": (stat(results("cce.solve_cce_approx"), "ellipsoid_iters"), "count"),
        "cce.lp_calls": (cce_lp, "count"),
        "runtime.gc.collections": (tracer.gc_collections, "count"),
        "runtime.gc_s": (tracer.gc_seconds, "s"),
    }
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            elif kind == "s":
                metrics[f"{name}.s"] = (busy.get(name, 0.0), "s")
            else:
                metrics[f"{name}.self_s"] = (self_time.get(name, 0.0), "s")
    check = {"mismatches": mismatches, "skipped": sorted(set(skipped)), "absent": tracer.absent}
    return metrics, check


# span name -> which of calls / inclusive seconds / self seconds are reported
SPAN_METRICS = {
    "persuasion.solve_full": ("s", "self_s"),
    "persuasion.solve_reduced": ("s", "self_s"),
    "persuasion.enumerate_actions": ("calls", "s"),
    "arrangement.enumerate_cells": ("s",),
    "arrangement.strict_simplex_point": ("calls", "s"),
    "arrangement.weak_simplex_point": ("calls", "s"),
    "best_response.enumerate_best_responses": ("s", "self_s"),
    "best_response.check_nondegeneracy": ("calls", "s"),
    "best_response.greedy_at_point": ("calls", "s"),
    "cce.make_view": ("s",),
    "cce.solve_cce_exact": ("s", "self_s"),
    "cce.solve_cce_approx": ("s", "self_s"),
    "cce.separation": ("calls", "s"),
    "matroid.max_weight_action": ("calls", "s"),
    "paths.shortest_path": ("calls", "s"),
    "paths.enumerate_paths": ("calls", "s"),
    "model.expected_value": ("calls",),
    "reductions.gen": ("calls", "s"),
    "jsonio.instance_from_json": ("s",),
    "jsonio.dumps_canonical": ("s",),
    "jsonio.instance_digest": ("s",),
    "cli.solve": ("s",),
    "cli.enumerate": ("s",),
    "cli.validate": ("s", "self_s"),
    "cli.gen": ("s",),
    "cli.check-nondegeneracy": ("s",),
}
