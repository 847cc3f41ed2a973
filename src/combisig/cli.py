"""Command-line entry point.

Subcommands: ``solve`` (full / reduced / relaxed-obedience solvers),
``enumerate`` (best-response catalog), ``validate`` (exact persuasiveness
check plus a Monte Carlo estimate of the sender value), ``gen`` (compile a
linear system or public-persuasion spec into an instance), and
``check-nondegeneracy``.

Reports are canonical JSON on stdout and contain no wall-clock fields, so
the same instance, flags, and seed always produce byte-identical output.
Effort counters (pivots, cut rounds, ellipsoid iterations) stand in for
timing; ``--json-logs`` adds timestamped progress lines on stderr.

Exit codes: 0 success, 1 usage error (bad flags, unreadable input),
2 solver-level refusal (infeasible, too large, unsupported combination).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from math import ceil, sqrt

# cce, best_response and reductions are imported by the subcommands that
# run them, so a child process compiles only what it uses
from . import jsonio, persuasion
from .errors import CombisigError, InstanceFormatError, ParameterError
from .model import Instance, UtilityKind, posterior, signal_mass
from .rationals import ZERO

USAGE_EXIT = 1
SOLVER_EXIT = 2
DEFAULT_SAMPLES = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        raise SystemExit(
            self.prog + ": error: " + message
        ) from None


def _fail_usage(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="combisig", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json-logs", action="store_true", help="emit progress lines on stderr"
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the primary artifact to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common, out], help="solve an instance")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument(
        "--max-actions", type=int, default=None, help="cap on enumerated actions"
    )
    p_solve.add_argument(
        "--mode", choices=("full", "reduced", "cce"), default="full"
    )
    p_solve.add_argument("--epsilon", default="1/10", help="tolerance, p/q")
    p_solve.add_argument("--oracle", choices=("exact", "half-greedy"), default="exact")

    p_enum = sub.add_parser("enumerate", parents=[common, out], help="best-response catalog")
    p_enum.add_argument("instance")

    p_val = sub.add_parser("validate", parents=[common], help="check a scheme")
    p_val.add_argument("instance")
    p_val.add_argument("scheme")
    p_val.add_argument("--seed", type=int, default=0, help="RNG seed (Monte Carlo)")
    p_val.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_gen = sub.add_parser("gen", parents=[common, out], help="generate an instance")
    p_gen.add_argument("spec", help="system / public-persuasion spec JSON path")
    p_gen.add_argument(
        "--from", dest="source", choices=("lineq", "public"), required=True
    )
    p_gen.add_argument(
        "--target", choices=("uniform", "graphic", "path", "partition"), required=True
    )

    p_nd = sub.add_parser(
        "check-nondegeneracy", parents=[common], help="audit utility-vector families"
    )
    p_nd.add_argument("instance")
    return parser


def _log(args, message: str) -> None:
    if args.json_logs:
        line = {"ts": round(time.time(), 3), "msg": message}
        print(json.dumps(line), file=sys.stderr)


def _load_instance(path: str) -> Instance:
    try:
        raw = jsonio.load_json(path)
    except FileNotFoundError:
        raise _fail_usage(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _fail_usage(f"{path} is not valid JSON: {exc}")
    return jsonio.instance_from_json(raw)


def _emit_report(report: dict, args) -> None:
    print(jsonio.dumps_canonical(report))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    digest = jsonio.instance_digest(instance)
    _log(args, f"solving {args.instance} mode={args.mode}")
    if args.mode == "full":
        result = persuasion.solve_full(instance, max_actions=args.max_actions)
    elif args.mode == "reduced":
        result = persuasion.solve_reduced(instance)
    else:
        from . import cce

        view = cce.make_view(
            instance,
            oracle=args.oracle,
            epsilon=args.epsilon,
            max_actions=args.max_actions,
        )
        # column generation is exact but needs an exact oracle; the ellipsoid
        # search takes any alpha
        if view.oracle.alpha == 1:
            result = cce.solve_cce_exact(view)
        else:
            result = cce.solve_cce_approx(view)
    scheme_json = jsonio.scheme_to_json(result.scheme, digest)
    report = {
        "command": "solve",
        "mode": args.mode,
        "instance": args.instance,
        "digest": digest,
        "value": jsonio.format_rational(result.sender_value),
        "method": result.method,
        "catalog_size": result.catalog_size,
        "effort": dict(sorted(result.lp_stats.items())),
        "warnings": [],
    }
    if args.out:
        jsonio.save_json(args.out, scheme_json)
        report["scheme_path"] = args.out
    else:
        report["scheme"] = scheme_json
    _emit_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    from . import best_response

    instance = _load_instance(args.instance)
    digest = jsonio.instance_digest(instance)
    _log(args, f"enumerating best responses for {args.instance}")
    catalog = best_response.enumerate_best_responses(instance)
    body = {
        "command": "enumerate",
        "instance": args.instance,
        "digest": digest,
        "actions": [list(a) for a in catalog.actions],
        "witnesses": [
            [jsonio.format_rational(x) for x in w] for w in catalog.witnesses
        ],
        "num_cells": catalog.num_cells,
        "perturbed": catalog.perturbed,
        "degeneracy": {
            "clean": catalog.degeneracy.clean,
            "method": catalog.degeneracy.method,
            "families_checked": catalog.degeneracy.families_checked,
        },
        "warnings": [],
    }
    if args.out:
        jsonio.save_json(args.out, body)
        body = {"command": "enumerate", "catalog_path": args.out, "digest": digest}
    _emit_report(body, args)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cut_points(weights) -> list[int]:
    """``ceil(acc_k * 2^53)`` for the cumulative weights ``acc_k``.

    A 53-bit draw ``bits`` has ``bits / 2^53 < acc_k`` exactly when
    ``bits < cut_k``, so ``bisect_right(cuts, bits)`` is the index an exact
    ``Fraction`` walk over the cumulative weights picks.
    """
    cuts = []
    acc = ZERO
    for w in weights:
        acc += w
        cuts.append(ceil(acc * (1 << 53)))
    return cuts


def cmd_validate(args) -> int:
    if args.samples < 1:
        raise _fail_usage("--samples must be at least 1")
    instance = _load_instance(args.instance)
    digest = jsonio.instance_digest(instance)
    try:
        raw = jsonio.load_json(args.scheme)
        scheme, scheme_digest = jsonio.scheme_from_json(raw)
    except FileNotFoundError:
        raise _fail_usage(f"no such file: {args.scheme}")
    except json.JSONDecodeError as exc:
        raise _fail_usage(f"{args.scheme} is not valid JSON: {exc}")
    warnings = []
    if scheme_digest is not None and scheme_digest != digest:
        raise _fail_usage("scheme was computed for a different instance (digest mismatch)")

    _log(args, f"validating {args.scheme} with {args.samples} samples")
    # A tabular utility is scanned over every feasible action: enumerate
    # them once for the audit and all the tie-broken responses.
    pool = None
    if UtilityKind.TABULAR in (instance.receiver.kind, instance.sender.kind):
        pool = persuasion.enumerate_actions(instance.constraint, instance.num_elements)
    report_exact = persuasion.check_persuasive(instance, scheme, pool)
    lp_value = persuasion.expected_sender_value(instance, scheme)

    # The receiver best-responds to each recommendation's posterior with
    # sender-favoring ties; sample (state, recommendation) pairs, then score
    # each pair once, weighted by its count.
    responses = {
        action: persuasion.tie_broken_response(instance, posterior(instance, scheme, action), pool)
        for action in scheme.support
        if signal_mass(instance, scheme, action) != 0
    }

    rng = random.Random(args.seed)
    per_state = [
        [(a, p) for (tt, a), p in sorted(scheme.phi.items()) if tt == t and p > 0]
        for t in range(instance.num_states)
    ]
    state_cuts = _cut_points(instance.prior)
    action_cuts = [_cut_points(p for _, p in recs) for recs in per_state]
    counts: dict[tuple[int, int], int] = {}
    n = args.samples
    for _ in range(n):
        t = min(bisect_right(state_cuts, rng.getrandbits(53)), len(state_cuts) - 1)
        cuts = action_cuts[t]
        k = min(bisect_right(cuts, rng.getrandbits(53)), len(cuts) - 1)
        counts[t, k] = counts.get((t, k), 0) + 1
    total = total_sq = ZERO
    for (t, k), count in counts.items():
        value = instance.sender.value(t, responses[per_state[t][k][0]])
        total += count * value
        total_sq += count * value * value
    mean = total / n
    var = total_sq / n - mean * mean
    se = sqrt(max(float(var), 0.0) / n)
    gap = abs(float(mean - lp_value))
    disagree = gap > 4 * se if se > 0 else mean != lp_value
    if disagree:
        warnings.append(
            f"empirical mean {float(mean):.6f} deviates from exact value "
            f"{float(lp_value):.6f} by more than 4 standard errors"
        )
    report = {
        "command": "validate",
        "instance": args.instance,
        "digest": digest,
        "samples": n,
        "seed": args.seed,
        "exact_value": jsonio.format_rational(lp_value),
        "empirical_mean": jsonio.format_rational(mean),
        "standard_error": repr(se),
        "ci95": [repr(float(mean) - 1.96 * se), repr(float(mean) + 1.96 * se)],
        "within_4se": not disagree,
        "persuasive": report_exact.persuasive,
        "violations": [
            [list(S), list(alt), jsonio.format_rational(gap_)]
            for S, alt, gap_ in report_exact.violations[:10]
        ],
        "warnings": warnings,
    }
    _emit_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from . import reductions

    try:
        raw = jsonio.load_json(args.spec)
    except FileNotFoundError:
        raise _fail_usage(f"no such file: {args.spec}")
    except json.JSONDecodeError as exc:
        raise _fail_usage(f"{args.spec} is not valid JSON: {exc}")
    warnings = []
    if args.source == "lineq":
        if args.target == "partition":
            raise _fail_usage("partition instances come from --from public")
        spec = jsonio.lineq_spec_from_json(raw)
        if spec.zeta < 1 and Fraction(spec.n_var - 1, spec.n_var) <= (
            (1 - 2 * spec.zeta) / (1 - spec.zeta)
        ):
            warnings.append(
                "n_var too small for the promise gap: "
                "(n_var-1)/n_var <= (1-2*zeta)/(1-zeta)"
            )
        instance = reductions.TARGETS[args.target](spec)
    else:
        if args.target != "partition":
            raise _fail_usage("--from public only generates --target partition")
        spec = jsonio.public_spec_from_json(raw)
        instance = reductions.gen_partition_from_public(spec)
    _log(args, f"generated {args.target} instance from {args.spec}")
    body = jsonio.instance_to_json(instance)
    digest = jsonio.instance_digest(instance)
    report = {
        "command": "gen",
        "source": args.source,
        "target": args.target,
        "digest": digest,
        "num_states": instance.num_states,
        "num_elements": instance.num_elements,
        "warnings": warnings,
    }
    if args.out:
        jsonio.save_json(args.out, body)
        report["instance_path"] = args.out
    else:
        report["instance"] = body
    _emit_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# check-nondegeneracy
# ---------------------------------------------------------------------------


def cmd_check_nondegeneracy(args) -> int:
    from . import best_response

    instance = _load_instance(args.instance)
    _log(args, f"auditing utility families for {args.instance}")
    report = best_response.check_nondegeneracy(instance)
    found = len(report.violations)
    body = {
        "command": "check-nondegeneracy",
        "instance": args.instance,
        "digest": jsonio.instance_digest(instance),
        "clean": report.clean,
        "method": report.method,
        "families_checked": report.families_checked,
        "violations": [
            {"permutation": list(perm), "positions": list(pos)}
            for perm, pos in report.violations[:10]
        ],
        "warnings": [f"{found} violations; the first 10 are listed"] if found > 10 else [],
    }
    _emit_report(body, args)
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "validate": cmd_validate,
    "gen": cmd_gen,
    "check-nondegeneracy": cmd_check_nondegeneracy,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_EXIT
        return USAGE_EXIT if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except (InstanceFormatError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CombisigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
