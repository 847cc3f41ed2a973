"""Exact JSON round-tripping for instances, schemes, and run reports.

Rationals travel as "p/q" strings (plain integers are accepted and
normalized) so no value ever passes through floating point.  Serialization
is canonical — sorted keys, fixed separators — so equal objects produce
byte-identical files, and an instance digest (SHA-256 of the canonical
form) ties schemes and reports to the instance they were computed from.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .errors import InstanceFormatError
from .model import (
    ActionSet,
    Graphic,
    Instance,
    OracleMatroid,
    PathGraph,
    Partition,
    Sense,
    SignalingScheme,
    Uniform,
    UtilityKind,
    UtilitySpec,
)
from .rationals import as_fraction


def _json_int(v) -> int:
    """A JSON integer, as is: floats and strings are refused rather than
    truncated or parsed, and so are booleans, which Python counts as ints."""
    if type(v) is not int:
        raise InstanceFormatError(f"expected an integer, got {v!r}")
    return v


def format_rational(v: Fraction) -> str | int:
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def format_action(action: ActionSet) -> str:
    return ",".join(str(e) for e in action)


def parse_action(raw: str) -> ActionSet:
    if not isinstance(raw, str):
        raise InstanceFormatError(f"action keys must be strings, got {raw!r}")
    if raw == "":
        return ()
    parts = raw.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise InstanceFormatError(f"bad action key {raw!r}: not comma-separated decimal integers")
    action = tuple(sorted(int(part) for part in parts))
    if len(set(action)) != len(action):
        raise InstanceFormatError(f"bad action key {raw!r}: repeated element")
    return action


def _utility_to_json(util: UtilitySpec):
    if util.kind is UtilityKind.LINEAR:
        return {
            "kind": "linear",
            "rows": [[format_rational(v) for v in row] for row in util.linear],
        }
    return {
        "kind": "tabular",
        "tables": [
            {format_action(a): format_rational(v) for a, v in sorted(table.items())}
            for table in util.tabular
        ],
    }


def _utility_from_json(raw) -> UtilitySpec:
    kind = raw["kind"]
    if kind == "linear":
        return UtilitySpec.from_linear(
            [[as_fraction(v) for v in row] for row in raw["rows"]]
        )
    if kind == "tabular":
        return UtilitySpec.from_tabular(
            [
                {parse_action(a): as_fraction(v) for a, v in table.items()}
                for table in raw["tables"]
            ]
        )
    raise InstanceFormatError(f"unknown utility kind {kind!r}")


def _constraint_to_json(constraint):
    if isinstance(constraint, Uniform):
        return {"kind": "uniform", "k": constraint.k}
    if isinstance(constraint, Partition):
        return {
            "kind": "partition",
            "blocks": [list(block) for block in constraint.blocks],
            "caps": list(constraint.caps),
        }
    if isinstance(constraint, Graphic):
        return {
            "kind": "graphic",
            "num_vertices": constraint.num_vertices,
            "edges": [list(edge) for edge in constraint.edges],
        }
    if isinstance(constraint, PathGraph):
        return {
            "kind": "path",
            "num_vertices": constraint.num_vertices,
            "edges": [list(edge) for edge in constraint.edges],
            "source": constraint.source,
            "sink": constraint.sink,
        }
    if isinstance(constraint, OracleMatroid):
        return {"kind": "oracle", "oracle_id": constraint.oracle_id}
    raise InstanceFormatError(f"unknown constraint {type(constraint).__name__}")


def _constraint_from_json(raw):
    kind = raw["kind"]
    if kind == "uniform":
        return Uniform(k=_json_int(raw["k"]))
    if kind == "partition":
        return Partition(
            blocks=tuple(tuple(_json_int(e) for e in block) for block in raw["blocks"]),
            caps=tuple(_json_int(c) for c in raw["caps"]),
        )
    if kind == "graphic":
        return Graphic(
            num_vertices=_json_int(raw["num_vertices"]),
            edges=tuple((_json_int(u), _json_int(v)) for u, v in raw["edges"]),
        )
    if kind == "path":
        return PathGraph(
            num_vertices=_json_int(raw["num_vertices"]),
            edges=tuple((_json_int(u), _json_int(v)) for u, v in raw["edges"]),
            source=_json_int(raw["source"]),
            sink=_json_int(raw["sink"]),
        )
    if kind == "oracle":
        return OracleMatroid(oracle_id=str(raw["oracle_id"]))
    raise InstanceFormatError(f"unknown constraint kind {kind!r}")


def instance_to_json(instance: Instance) -> dict:
    return {
        "states": list(instance.state_names),
        "prior": [format_rational(p) for p in instance.prior],
        "elements": list(instance.element_names),
        "sender": _utility_to_json(instance.sender),
        "receiver": _utility_to_json(instance.receiver),
        "constraint": _constraint_to_json(instance.constraint),
        "sense": instance.sense.value,
    }


def instance_from_json(raw: dict) -> Instance:
    try:
        return Instance(
            state_names=tuple(str(s) for s in raw["states"]),
            prior=tuple(as_fraction(p) for p in raw["prior"]),
            element_names=tuple(str(e) for e in raw["elements"]),
            sender=_utility_from_json(raw["sender"]),
            receiver=_utility_from_json(raw["receiver"]),
            constraint=_constraint_from_json(raw["constraint"]),
            sense=Sense(raw.get("sense", "max")),
        )
    except KeyError as exc:
        raise InstanceFormatError(f"instance JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed instance JSON: {exc}") from None


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(instance: Instance) -> str:
    import hashlib  # here, not at the top: loading it loads OpenSSL, which parsing never needs

    payload = dumps_canonical(instance_to_json(instance))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def scheme_to_json(scheme: SignalingScheme, digest: str | None = None) -> dict:
    entries = [
        {"state": t, "action": list(a), "prob": format_rational(p)}
        for (t, a), p in sorted(scheme.phi.items())
    ]
    out = {"num_states": scheme.num_states, "phi": entries}
    if digest is not None:
        out["instance_digest"] = digest
    return out


def scheme_from_json(raw: dict) -> tuple[SignalingScheme, str | None]:
    try:
        phi = {}
        for entry in raw["phi"]:
            key = (_json_int(entry["state"]), tuple(sorted(_json_int(e) for e in entry["action"])))
            phi[key] = phi.get(key, Fraction(0)) + as_fraction(entry["prob"])
        scheme = SignalingScheme.from_phi(_json_int(raw["num_states"]), phi)
        return scheme, raw.get("instance_digest")
    except KeyError as exc:
        raise InstanceFormatError(f"scheme JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed scheme JSON: {exc}") from None


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def lineq_spec_from_json(raw: dict):
    from .reductions import LineqMaSpec

    try:
        return LineqMaSpec.make(
            A=[[as_fraction(v) for v in row] for row in raw["A"]],
            c=[as_fraction(v) for v in raw["c"]],
            zeta=as_fraction(raw.get("zeta", 0)),
            delta=as_fraction(raw.get("delta", 0)),
            known_solution=raw.get("known_solution"),
        )
    except KeyError as exc:
        raise InstanceFormatError(f"system JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed system JSON: {exc}") from None


def public_spec_from_json(raw: dict):
    from .reductions import PublicPersuasionSpec

    try:
        return PublicPersuasionSpec.make(
            state_names=raw["states"],
            prior=[as_fraction(p) for p in raw["prior"]],
            r0=[[as_fraction(v) for v in row] for row in raw["r0"]],
            r1=[[as_fraction(v) for v in row] for row in raw["r1"]],
            sender=[[as_fraction(v) for v in row] for row in raw["sender"]],
        )
    except KeyError as exc:
        raise InstanceFormatError(f"spec JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed spec JSON: {exc}") from None
