"""End-to-end command-line checks: report contents, exit codes, determinism,
and the instance/scheme JSON round trip."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from combisig import cli, jsonio, persuasion
from combisig.model import Instance, SignalingScheme, Uniform, UtilitySpec
from helpers import as_tables, grid_path_instance, validate_sampling_reference, wide_uniform_instance

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
TOY = str(INSTANCES / "two_state_toy.json")
WEATHER = str(INSTANCES / "weather_pair.json")
ROUTE = str(INSTANCES / "route_min.json")
LINEQ = str(INSTANCES / "lineq_demo.json")
PUBLIC = str(INSTANCES / "public_demo.json")

# Pinned so that accidental changes to the on-disk format or the digest
# recipe show up as a failure here rather than as silently new digests.
WEATHER_DIGEST = "20119dcd227ed42dd8b6210f8c2cfd17508e5ddb4bbb4f186199e846a15120b1"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_full_report(capsys):
    report = report_of(capsys, "solve", TOY, "--mode", "full")
    assert report["command"] == "solve"
    assert report["mode"] == "full"
    assert report["value"] == "5/6"
    assert report["digest"] and len(report["digest"]) == 64
    assert "scheme" in report and "scheme_path" not in report
    assert report["scheme"]["instance_digest"] == report["digest"]
    assert report["effort"]["pivots"] >= 1
    assert "trace" not in report["effort"]


def test_solve_modes_agree_on_clean_instance(capsys):
    values = {
        mode: report_of(capsys, "solve", WEATHER, "--mode", mode)["value"]
        for mode in ("full", "reduced")
    }
    assert values["full"] == values["reduced"] == 4


def test_solve_out_then_validate(capsys, tmp_path):
    scheme_path = str(tmp_path / "scheme.json")
    report = report_of(capsys, "solve", TOY, "--out", scheme_path)
    assert report["scheme_path"] == scheme_path
    val = report_of(
        capsys, "validate", TOY, scheme_path, "--samples", "400", "--seed", "7"
    )
    assert val["command"] == "validate"
    assert val["persuasive"] is True
    assert val["violations"] == []
    assert val["exact_value"] == "5/6"
    assert val["within_4se"] is True
    assert val["samples"] == 400 and val["seed"] == 7


def test_validate_digest_mismatch_is_usage_error(capsys, tmp_path):
    scheme_path = str(tmp_path / "scheme.json")
    report_of(capsys, "solve", TOY, "--out", scheme_path)
    code, _, err = run(capsys, "validate", WEATHER, scheme_path)
    assert code == 1
    assert "digest" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_validate_rejects_fewer_than_one_sample(capsys, tmp_path, samples):
    scheme_path = str(tmp_path / "scheme.json")
    report_of(capsys, "solve", TOY, "--out", scheme_path)
    code, out, err = run(capsys, "validate", TOY, scheme_path, "--samples", samples)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: --samples must be at least 1"]


@pytest.mark.parametrize("mode", ["full", "reduced", "cce"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_solve_rejects_a_cap_below_one_action(capsys, mode, cap):
    """In every mode, also where the cap would go unused (cce on a linear
    instance, reduced), before the instance is read."""
    for instance in (TOY, ROUTE):
        code, out, err = run(capsys, "solve", instance, "--mode", mode, "--max-actions", cap)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: --max-actions must be at least 1"]


def test_validate_needs_no_catalog_past_the_enumeration_cap(capsys, tmp_path):
    inst = wide_uniform_instance()
    digest = jsonio.instance_digest(inst)
    inst_path = str(tmp_path / "wide.json")
    scheme_path = str(tmp_path / "wide.scheme.json")
    jsonio.save_json(inst_path, jsonio.instance_to_json(inst))
    scheme = persuasion.solve_reduced(inst).scheme
    jsonio.save_json(scheme_path, jsonio.scheme_to_json(scheme, digest))
    report = report_of(capsys, "validate", inst_path, scheme_path, "--samples", "50")
    assert report["persuasive"] is True
    assert not any("catalog" in w for w in report["warnings"])
    # Uniform(2) on 21 elements: the scan reference can list its 232 actions.
    # The perturbed catalog's scheme recommends actions that tie, for the
    # receiver, with actions the sender likes better, so the sampled mean
    # (ties go to the sender) may exceed the exact value of obeying.
    actions = [S for k in range(3) for S in combinations(range(21), k)]
    expected = validate_sampling_reference(inst, scheme, 50, 0, actions)
    assert {key: report[key] for key in expected} == expected


def test_validate_answers_a_path_instance_past_the_enumeration_cap(capsys, tmp_path, monkeypatch):
    """A 12 x 12 grid has 264 edges and C(22, 11) = 705,432 source-sink
    paths, past the path enumeration cap: no action may be enumerated."""
    from combisig import paths

    def refuse(*args, **kwargs):
        raise AssertionError("paths enumerated")

    monkeypatch.setattr(paths, "enumerate_paths", refuse)
    inst = grid_path_instance(random.Random(12), 12, 12, 2)
    assert inst.num_elements == 264 and comb(22, 11) > paths.DEFAULT_PATH_CAP
    digest = jsonio.instance_digest(inst)
    inst_path = str(tmp_path / "grid.json")
    scheme_path = str(tmp_path / "grid.scheme.json")
    jsonio.save_json(inst_path, jsonio.instance_to_json(inst))
    scheme, _ = persuasion.uninformative_scheme(inst)
    jsonio.save_json(scheme_path, jsonio.scheme_to_json(scheme, digest))
    report = report_of(capsys, "validate", inst_path, scheme_path, "--samples", "100")
    assert report["persuasive"] is True and report["violations"] == []


INFEASIBLE = [
    # weather_pair is Uniform(2): three elements are not independent
    (WEATHER, {"num_states": 3, "phi": [{"state": t, "action": [0, 1, 2], "prob": 1} for t in range(3)]}),
    # route_min: edges 0 and 3 do not join up into a source-sink path
    (ROUTE, {"num_states": 2, "phi": [{"state": t, "action": [0, 3], "prob": 1} for t in range(2)]}),
    # weather_pair has three states
    (WEATHER, {"num_states": 2, "phi": [{"state": t, "action": [0, 1], "prob": 1} for t in range(2)]}),
    (WEATHER, {"num_states": 3}),
    (WEATHER, {"num_states": 3, "phi": [{"state": 0, "action": [0, 1]}]}),
    (WEATHER, [1, 2, 3]),
    # indices must be JSON integers: int() would read this as recommending (1,) in state 0
    (TOY, {"num_states": 2.7, "phi": [{"state": 0.9, "action": [1.5], "prob": 1},
                                      {"state": 1, "action": [1], "prob": 1}]}),
]


def test_validate_enumerates_a_tabular_instance_once(capsys, tmp_path, monkeypatch):
    """Both utilities as tables: the audit and every signal's tie-broken
    response scan one enumeration, and the report is the linear one's."""
    linear = jsonio.instance_from_json(jsonio.load_json(WEATHER))
    inst = as_tables(linear)
    scheme = persuasion.solve_full(inst).scheme
    assert len(scheme.support) == 2
    genuine = persuasion.enumerate_actions
    reports = {}
    for name, which in (("linear", linear), ("tables", inst)):
        inst_path, scheme_path = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.scheme.json")
        jsonio.save_json(inst_path, jsonio.instance_to_json(which))
        jsonio.save_json(scheme_path, jsonio.scheme_to_json(scheme, jsonio.instance_digest(which)))
        calls = []
        monkeypatch.setattr(persuasion, "enumerate_actions", lambda *a: calls.append(a) or genuine(*a))
        reports[name] = report_of(capsys, "validate", inst_path, scheme_path, "--samples", "500")
        assert len(calls) == (name == "tables"), name
    for report in reports.values():
        del report["instance"], report["digest"]
    assert reports["tables"] == reports["linear"] and reports["linear"]["persuasive"] is True


@pytest.mark.parametrize(
    "instance,raw",
    INFEASIBLE,
    ids=["not-independent", "not-a-path", "wrong-state-count", "no-phi", "no-prob", "not-an-object",
         "float-indices"],
)
def test_validate_rejects_malformed_or_infeasible_schemes(capsys, tmp_path, instance, raw):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "validate", instance, str(scheme_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _toy_with(**fields):
    raw = json.loads(Path(TOY).read_text())
    raw.update(fields)
    return raw


def _tabular_keyed(key):
    """An 11-element instance whose sender tables hold ``key``; int() on each
    comma-separated part reads every key below as an in-range action."""
    n = 11
    return {
        "states": ["a", "b"], "elements": [f"e{i}" for i in range(n)], "prior": ["1/2", "1/2"],
        "constraint": {"kind": "uniform", "k": 1}, "sense": "max",
        "receiver": {"kind": "linear", "rows": [list(range(n)), list(range(n, 0, -1))]},
        "sender": {"kind": "tabular", "tables": [{"": 0, key: 1}, {"": 0, key: 1}]},
    }


GEN_LINEQ = ("gen", "--from", "lineq", "--target", "uniform")
GEN_PUBLIC = ("gen", "--from", "public", "--target", "partition")
MALFORMED_INPUTS = {
    "instance-not-an-object": (("solve",), []),
    "unknown-sense": (("solve",), _toy_with(sense="sideways")),
    "row-is-a-number": (("solve",), _toy_with(receiver={"kind": "linear", "rows": [3, [3, 6]]})),
    "constraint-not-an-object": (("solve",), _toy_with(constraint=5)),
    "three-element-edge": (
        ("solve",),
        _toy_with(constraint={"kind": "graphic", "num_vertices": 3, "edges": [[0, 1, 2], [1, 2]]}),
    ),
    # int() read these as Uniform(2) and Uniform(1)
    "float-k": (("solve",), _toy_with(constraint={"kind": "uniform", "k": 2.9})),
    "bool-k": (("solve",), _toy_with(constraint={"kind": "uniform", "k": True})),
    "lineq-A-is-a-number": (GEN_LINEQ, {"A": 5, "c": ["1"]}),
    "public-r0-is-a-number": (GEN_PUBLIC, dict(json.loads(Path(PUBLIC).read_text()), r0=5)),
    # int() read these action keys as (10,), (0, 2), (1,), (1,) and (3,)
    "action-key-underscore": (("check-nondegeneracy",), _tabular_keyed("1_0")),
    "action-key-spaces": (("check-nondegeneracy",), _tabular_keyed(" 2, 0")),
    "action-key-plus-sign": (("check-nondegeneracy",), _tabular_keyed("+1")),
    "action-key-repeated-element": (("check-nondegeneracy",), _tabular_keyed("1,1")),
    "action-key-arabic-indic-digit": (("check-nondegeneracy",), _tabular_keyed("\u0663")),
}


@pytest.mark.parametrize("command,raw", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_files_are_usage_errors(capsys, tmp_path, command, raw):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def _weather_scheme(phi):
    A, B, C = (0, 1), (0, 2), (1, 2)
    named = {(t, {"A": A, "B": B, "C": C}[a]): Fraction(p) for (t, a), p in phi.items()}
    return SignalingScheme.from_phi(3, named)


SAMPLER_SCHEMES = {
    # the optimal scheme of weather_pair
    "optimal": {(0, "A"): "1/4", (0, "B"): "3/4", (1, "A"): 1, (2, "B"): 1},
    # state 0 recommends all three actions
    "three-way": {
        (0, "A"): "1/2", (0, "B"): "1/3", (0, "C"): "1/6",
        (1, "A"): 1, (2, "B"): "1/2", (2, "C"): "1/2",
    },
    # no recommendation is obeyed, so the exact value is far off
    "disobeyed": {(0, "C"): 1, (1, "B"): 1, (2, "A"): "1/2", (2, "C"): "1/2"},
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SCHEMES))
@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("samples", [1, 7, 10_000])
def test_validate_sampling_matches_fraction_reference(capsys, tmp_path, name, seed, samples):
    inst = jsonio.instance_from_json(jsonio.load_json(WEATHER))
    scheme = _weather_scheme(SAMPLER_SCHEMES[name])
    scheme_path = str(tmp_path / "scheme.json")
    jsonio.save_json(scheme_path, jsonio.scheme_to_json(scheme, WEATHER_DIGEST))
    report = report_of(
        capsys, "validate", WEATHER, scheme_path,
        "--samples", str(samples), "--seed", str(seed),
    )
    expected = validate_sampling_reference(inst, scheme, samples, seed)
    assert {key: report[key] for key in expected} == expected
    if name == "disobeyed":
        assert report["persuasive"] is False
    if name == "disobeyed" and samples == 10_000:
        assert report["within_4se"] is False
        assert any("4 standard errors" in w for w in report["warnings"])


def test_solve_min_sense_path_instance(capsys):
    report = report_of(capsys, "solve", ROUTE, "--mode", "full")
    assert report["value"] == "1/8"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "/no/such/instance.json")
    assert code == 1
    assert "no such file" in err


def test_bad_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "not valid JSON" in err


def test_bad_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", TOY, "--mode", "bogus")
    assert code == 1
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", TOY, "scheme.json", "--out", "x"),
        ("check-nondegeneracy", TOY, "--out", "x"),
        ("solve", TOY, "--seed", "3"),
        ("enumerate", TOY, "--max-actions", "5"),
        ("gen", LINEQ, "--from", "lineq", "--target", "path", "--max-actions", "5"),
        ("validate", ROUTE, "scheme.json", "--max-actions", "1"),
    ],
)
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("epsilon", ["abc", "1/0"])
def test_malformed_epsilon_is_usage_error(capsys, epsilon):
    code, out, err = run(capsys, "solve", TOY, "--mode", "cce", "--epsilon", epsilon)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: bad rational literal {epsilon!r}"]


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_solver_refusal_is_exit_two(capsys):
    # catalog enumeration only covers matroid constraints, not path instances
    code, _, err = run(capsys, "solve", ROUTE, "--mode", "reduced")
    assert code == 2
    assert "error" in err


def test_cce_approx_min_sense_is_exit_two(capsys):
    code, _, err = run(capsys, "solve", ROUTE, "--mode", "cce", "--oracle", "half-greedy")
    assert code == 2
    assert "UnsupportedSense" in err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    argv = ("solve", TOY, "--mode", "cce", "--oracle", "half-greedy")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert json.loads(first[1])["method"] == "cce-ellipsoid"  # alpha 1/2 routes there


def test_validate_is_seed_deterministic(capsys, tmp_path):
    scheme_path = str(tmp_path / "scheme.json")
    report_of(capsys, "solve", WEATHER, "--out", scheme_path)
    a = run(capsys, "validate", WEATHER, scheme_path, "--samples", "300", "--seed", "5")
    b = run(capsys, "validate", WEATHER, scheme_path, "--samples", "300", "--seed", "5")
    assert a == b and a[0] == 0


def test_json_logs_go_to_stderr_only(capsys):
    code, out, err = run(capsys, "enumerate", WEATHER, "--json-logs")
    assert code == 0
    json.loads(out)  # stdout is still one clean JSON document
    lines = [json.loads(line) for line in err.splitlines() if line.strip()]
    assert lines and all("ts" in line and "msg" in line for line in lines)
    _, _, quiet_err = run(capsys, "enumerate", WEATHER)
    assert quiet_err == ""


def test_bundled_instance_digest_is_stable(capsys):
    report = report_of(capsys, "enumerate", WEATHER)
    assert report["digest"] == WEATHER_DIGEST


# ---------------------------------------------------------------------------
# enumerate / check-nondegeneracy
# ---------------------------------------------------------------------------


def test_enumerate_catalog_fields(capsys):
    report = report_of(capsys, "enumerate", WEATHER)
    assert report["actions"] == [[0, 1], [0, 2], [1, 2]]
    assert report["num_cells"] == 6
    assert report["perturbed"] is False
    assert report["degeneracy"]["clean"] is True
    assert len(report["witnesses"]) == 3
    assert all(len(w) == 3 for w in report["witnesses"])


def test_enumerate_out_writes_catalog(capsys, tmp_path):
    out = str(tmp_path / "catalog.json")
    report = report_of(capsys, "enumerate", WEATHER, "--out", out)
    assert report == {
        "command": "enumerate",
        "catalog_path": out,
        "digest": WEATHER_DIGEST,
    }
    saved = json.loads(Path(out).read_text())
    assert saved["actions"] == [[0, 1], [0, 2], [1, 2]]


def test_check_nondegeneracy_clean_and_degenerate(capsys, tmp_path):
    clean = report_of(capsys, "check-nondegeneracy", ROUTE)
    assert clean["clean"] is True
    assert clean["method"] == "exhaustive"
    assert clean["families_checked"] >= 1
    assert clean["violations"] == []

    # three elements across three states: each of the three Hamiltonian
    # paths is one family of two differences
    small = report_of(capsys, "check-nondegeneracy", WEATHER)
    assert small["clean"] is True
    assert small["method"] == "exhaustive"
    assert small["families_checked"] == 3

    # a small linear system compiles to five states over six elements whose
    # two "keep" columns repeat the all-ones vector: detectably degenerate
    spec_path = tmp_path / "tiny_lineq.json"
    spec_path.write_text(
        json.dumps({"A": [[1, 0, 1, 0], [0, 1, 0, 1]], "c": [1, 1], "zeta": 0, "delta": 0})
    )
    gen_out = str(tmp_path / "lineq_uniform.json")
    report_of(
        capsys, "gen", str(spec_path), "--from", "lineq", "--target", "uniform",
        "--out", gen_out,
    )
    dirty = report_of(capsys, "check-nondegeneracy", gen_out)
    assert dirty["clean"] is False
    assert dirty["violations"]


def _write_instance(path: Path, receiver_rows: list, k: int) -> str:
    n = len(receiver_rows[0])
    inst = Instance(
        state_names=tuple(f"s{t}" for t in range(len(receiver_rows))),
        prior=(Fraction(1, len(receiver_rows)),) * len(receiver_rows),
        element_names=tuple(f"e{i}" for i in range(n)),
        sender=UtilitySpec.from_linear([[1] * n for _ in receiver_rows]),
        receiver=UtilitySpec.from_linear(receiver_rows),
        constraint=Uniform(k),
    )
    path.write_text(json.dumps(jsonio.instance_to_json(inst)))
    return str(path)


def test_check_nondegeneracy_warns_when_the_violations_are_cut(capsys, tmp_path):
    """The report lists at most 10 violations; a cut list comes with a
    warning that gives the full count, and a whole list with none."""
    columns = [1, 1, 1, 2, 2, 3]
    many = report_of(capsys, "check-nondegeneracy", _write_instance(tmp_path / "many.json", [columns] * 2, 2))
    assert many["clean"] is False and len(many["violations"]) == 10
    assert many["warnings"] == ["105 violations; the first 10 are listed"]
    # two differences are parallel in exactly two families (0-1 = 6-7, 0-6 = 1-7)
    second = [2**e for e in range(7)] + [65]
    few = report_of(
        capsys, "check-nondegeneracy", _write_instance(tmp_path / "few.json", [list(range(1, 9)), second], 3)
    )
    assert few["clean"] is False and len(few["violations"]) == 2
    assert few["warnings"] == []


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["uniform", "graphic", "path"])
def test_gen_lineq_targets_roundtrip(capsys, tmp_path, target):
    out = str(tmp_path / f"{target}.json")
    report = report_of(
        capsys, "gen", LINEQ, "--from", "lineq", "--target", target, "--out", out
    )
    assert report["command"] == "gen"
    assert report["target"] == target
    assert report["num_states"] == 11  # ten variables plus the background state
    inst = jsonio.instance_from_json(jsonio.load_json(out))
    assert jsonio.instance_digest(inst) == report["digest"]
    assert inst.num_elements == report["num_elements"]
    # zeta = 0 makes the promise-gap warning unconditional
    assert any("n_var" in w for w in report["warnings"])


def test_full_mode_on_the_lineq_path_target_resumes_its_tableau(capsys, tmp_path):
    """Twenty lazy-row rounds solved cold took 2,279 pivots; resuming the
    tableau after each round's pair rows must at least halve that."""
    out = str(tmp_path / "path.json")
    report_of(capsys, "gen", LINEQ, "--from", "lineq", "--target", "path", "--out", out)
    report = report_of(capsys, "solve", out, "--mode", "full")
    assert report["value"] == "4/591"
    assert report["effort"]["pivots"] <= 2279 // 2


def test_reduced_mode_on_the_lineq_uniform_target_is_worth_the_uninformative_scheme(capsys, tmp_path):
    """The perturbed catalog of this target lacks the receiver's best
    response at the prior; ``reduced`` recommends it as well, so its value
    is the uninformative scheme's 1/3 or more, where it used to be 0."""
    out = str(tmp_path / "uniform.json")
    report_of(capsys, "gen", LINEQ, "--from", "lineq", "--target", "uniform", "--out", out)
    _, base = persuasion.uninformative_scheme(jsonio.instance_from_json(jsonio.load_json(out)))
    report = report_of(capsys, "solve", out, "--mode", "reduced")
    assert base == Fraction(1, 3) and Fraction(report["value"]) >= base
    assert report["catalog_size"] == 9 and report["effort"]["perturbed"] is True
    assert report["warnings"] == [cli.PERTURBED]


def test_reduced_and_enumerate_warn_when_the_catalog_is_perturbed(capsys, tmp_path):
    """A perturbed catalog may lack the actions that matter: ``reduced``
    gives 8/3 where ``full`` gives 4 on a zero receiver (every action ties),
    and both ``solve --mode reduced`` and ``enumerate`` say so.  Clean
    instances keep an empty warning list."""
    inst = Instance(
        state_names=("s0", "s1", "s2"),
        prior=(Fraction(1, 3),) * 3,
        element_names=("e0", "e1", "e2"),
        sender=UtilitySpec.from_linear([[4 * (i == j) for j in range(3)] for i in range(3)]),
        receiver=UtilitySpec.from_linear([[0] * 3] * 3),
        constraint=Uniform(2),
    )
    tied = str(tmp_path / "tied.json")
    jsonio.save_json(tied, jsonio.instance_to_json(inst))
    assert report_of(capsys, "solve", tied, "--mode", "full")["warnings"] == []
    reduced = report_of(capsys, "solve", tied, "--mode", "reduced")
    assert reduced["value"] == "8/3" and reduced["effort"]["perturbed"] is True
    assert reduced["warnings"] == [cli.PERTURBED] and "below --mode full" in cli.PERTURBED
    assert report_of(capsys, "enumerate", tied)["warnings"] == [cli.PERTURBED]
    for path in (TOY, WEATHER):
        assert report_of(capsys, "solve", path, "--mode", "reduced")["warnings"] == []
        assert report_of(capsys, "enumerate", path)["warnings"] == []


def test_gen_public_partition(capsys, tmp_path):
    out = str(tmp_path / "partition.json")
    report = report_of(
        capsys, "gen", PUBLIC, "--from", "public", "--target", "partition", "--out", out
    )
    assert report["num_elements"] % 2 == 0
    inst = jsonio.instance_from_json(jsonio.load_json(out))
    assert jsonio.instance_digest(inst) == report["digest"]


def test_gen_source_target_mismatch(capsys):
    code, _, _ = run(capsys, "gen", LINEQ, "--from", "lineq", "--target", "partition")
    assert code == 1
    code, _, _ = run(capsys, "gen", PUBLIC, "--from", "public", "--target", "uniform")
    assert code == 1


def test_gen_inline_instance_when_no_out(capsys):
    report = report_of(capsys, "gen", PUBLIC, "--from", "public", "--target", "partition")
    inst = jsonio.instance_from_json(report["instance"])
    assert jsonio.instance_digest(inst) == report["digest"]


# ---------------------------------------------------------------------------
# import surface
# ---------------------------------------------------------------------------

PUBLIC_NAMES = {
    "ActionSet", "ApproxOracle", "BestResponseCatalog", "CCEInstanceView",
    "CertificateError", "CombisigError", "DegenerateBounds",
    "Graphic", "Instance", "InstanceFormatError", "IterationCap", "LineqMaSpec",
    "MissingSolution", "NondegeneracyReport", "NoPath", "OracleContractViolation",
    "OracleMatroid", "ParameterError", "Partition", "PathGraph",
    "PersuasivenessReport", "Posterior", "PriorDegenerate", "PublicPersuasionSpec",
    "Sense", "SignalingScheme", "SolveResult", "TooLarge", "Uniform",
    "UnsupportedCombination", "UnsupportedSense", "UtilityKind", "UtilitySpec",
    "check_nondegeneracy", "check_persuasive", "completeness_scheme",
    "compute_v_bounds", "enumerate_actions", "enumerate_best_responses",
    "expected_sender_value", "gen_graphic_from_lineq", "gen_partition_from_public",
    "gen_path_from_lineq", "gen_uniform_from_lineq", "greedy_at_point", "make_view",
    "prior_best_value", "receiver_hyperplanes", "separation", "solve_cce_approx",
    "solve_cce_exact", "solve_full", "solve_reduced", "uninformative_scheme",
}

IMPORT_PROBE = """
import json, sys
import combisig.cli
heavy = ["combisig." + m for m in ("cce", "arrangement", "best_response", "reductions")]
cli_loads = [m for m in heavy if m in sys.modules]
from combisig import Instance, Uniform, UtilitySpec, solve_full, check_persuasive
import combisig
names = sorted(combisig.__all__)
star = {}
exec("from combisig import *", star)
try:
    combisig.no_such_name
    unknown = "no error"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"cli_loads": cli_loads, "names": names,
                  "star": sorted(set(star) - {"__builtins__"}), "unknown": unknown}))
"""


def test_import_surface():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    probe = json.loads(out)
    assert probe["cli_loads"] == []
    assert len(PUBLIC_NAMES) == 54
    assert set(probe["names"]) == PUBLIC_NAMES
    assert set(probe["star"]) == PUBLIC_NAMES
    assert probe["unknown"] == "AttributeError"


START_UP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "load":
    from combisig import jsonio
    jsonio.instance_from_json(jsonio.load_json(sys.argv[3]))
else:
    __import__(sys.argv[2])
print(" ".join(m for m in ("dataclasses", "inspect", "hashlib") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "target, absent",
    [
        *((f"combisig.{m}", "dataclasses inspect") for m in ("cli", "cce", "best_response", "arrangement", "reductions")),
        ("load", "hashlib"),
    ],
)
def test_start_up_leaves_out_heavy_modules(target, absent):
    """What a fresh interpreter (``-S``: no site hooks) loads for an import,
    or for parsing an instance: ``dataclasses`` -> ``inspect`` and OpenSSL's
    ``hashlib`` are start-up cost every CLI process would pay."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_PROBE, str(root / "src"), target,
         str(root / "instances" / "weather_pair.json")],
        capture_output=True, text=True, check=True,
    )
    assert set(done.stdout.split()) & set(absent.split()) == set()


# ---------------------------------------------------------------------------
# demo script
# ---------------------------------------------------------------------------


def test_demo_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COMBISIG=f"{sys.executable} -m combisig.cli")
    done = subprocess.run(
        ["sh", str(root / "scripts" / "demo.sh")], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "demo complete"
