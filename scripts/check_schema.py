#!/usr/bin/env python3
"""Validate a JSON document against its checked-in schema, stdlib-only.

Usage::

    python scripts/check_schema.py metrics metrics.json
    python scripts/check_schema.py workload [SPEC.json]
    python scripts/check_schema.py livebench live-bench.json   # "-" = stdin

The first argument names the document kind; its schema is
``schemas/<kind>.schema.json``.  The validator supports exactly the
subset those schemas use (unknown keywords are ignored, as the spec
requires):

* ``type`` (a name or a list of names; ``number`` accepts integers);
* ``required`` and ``properties`` on objects;
* ``additionalProperties`` as a schema applied to non-declared keys;
* ``items`` as a schema applied to every array element.

Beyond the structure, each kind keeps its semantic gates:

* ``workload`` without a document validates **every registered
  scenario**: each preset's ``spec.to_dict()`` must satisfy the schema
  and survive a strict ``from_dict`` round trip unchanged;
* ``livebench``: a run that killed the server must report zero oracle
  mismatches, ``consistent: true`` and every shadow record verified,
  latency percentiles must be monotone and non-negative, and ``acked``
  may not exceed ``offered``.

Every violation of every class is reported in one pass.  Exit code 0
means valid; 1 means invalid; 2 means the inputs could not be read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO, "src")

KINDS = ("metrics", "workload", "livebench")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def schema_path(kind: str) -> str:
    return os.path.join(_REPO, "schemas", f"{kind}.schema.json")


def load(source: str) -> Any:
    """Parse a JSON file (``-`` reads standard input)."""
    if source == "-":
        return json.load(sys.stdin)
    with open(source, encoding="utf-8") as handle:
        return json.load(handle)


def _type_ok(value: Any, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)) or \
            (isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def validate(value: Any, schema: Any, path: str = "$",
             errors: Optional[List[str]] = None) -> List[str]:
    """All violations of ``schema`` by ``value``, as ``path: message``."""
    if errors is None:
        errors = []
    if not isinstance(schema, dict):
        return errors

    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(value, name) for name in names):
            errors.append(
                f"{path}: expected type {' or '.join(names)}, "
                f"got {type(value).__name__}")
            return errors

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                validate(item, properties[key], f"{path}.{key}", errors)
            elif "additionalProperties" in schema:
                validate(item, schema["additionalProperties"],
                         f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{index}]", errors)

    return errors


# ----------------------------------------------------------------------
# semantic gates the structural schema cannot express
# ----------------------------------------------------------------------

def check_livebench(payload: Any) -> List[str]:
    """A live-bench report may not admit losing acknowledged data."""
    errors: List[str] = []
    latency = payload.get("latency")
    if isinstance(latency, dict):
        quantiles = [latency.get(k) for k in ("p50", "p95", "p99", "max")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if any(q < 0 for q in quantiles):
                errors.append("$.latency: negative latency reported")
            if not all(a <= b for a, b in zip(quantiles, quantiles[1:])):
                errors.append(
                    "$.latency: percentiles must be monotone "
                    f"(p50<=p95<=p99<=max, got {quantiles})")
    workload = payload.get("workload")
    if isinstance(workload, dict):
        acked = workload.get("acked")
        offered = workload.get("offered")
        if (isinstance(acked, int) and isinstance(offered, int)
                and acked > offered):
            errors.append("$.workload: acked exceeds offered")
    crash = payload.get("crash")
    if isinstance(crash, dict) and crash.get("killed"):
        if crash.get("oracle_mismatches") != 0:
            errors.append(
                "$.crash: the crash-consistency oracle reported "
                f"{crash.get('oracle_mismatches')} mismatch(es) -- "
                "acknowledged data was lost")
        if crash.get("consistent") is not True:
            errors.append("$.crash: recovery not marked consistent")
        if crash.get("shadow_verified") != crash.get("shadow_records"):
            errors.append(
                "$.crash: only "
                f"{crash.get('shadow_verified')}/{crash.get('shadow_records')} "
                "acknowledged writes survived the restart")
    return errors


def check_scenarios(schema: Any) -> List[str]:
    """Every registered workload scenario validates and round-trips."""
    sys.path.insert(0, _SRC)
    from repro.workload import WorkloadSpec, get_scenario, scenario_names

    errors: List[str] = []
    names = scenario_names()
    if not names:
        return ["no workload scenarios are registered"]
    for name in names:
        spec = get_scenario(name).spec
        rendered = spec.to_dict()
        validate(rendered, schema, name, errors)
        # The JSON hop must be lossless: encode, decode, rebuild, compare.
        rebuilt = WorkloadSpec.from_dict(json.loads(json.dumps(rendered)))
        if rebuilt != spec:
            errors.append(f"{name}: from_dict(to_dict()) is not the "
                          f"identity ({rebuilt!r} != {spec!r})")
    return errors


SEMANTIC_CHECKS = {"livebench": check_livebench}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="check_schema.py",
        description="validate a JSON document against its repo schema")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("document", nargs="?", default=None, metavar="DOC",
                        help="the document ('-' reads stdin); optional "
                             "only for 'workload', where omitting it "
                             "checks every registered scenario")
    args = parser.parse_args(argv)
    if args.document is None and args.kind != "workload":
        parser.error(f"{args.kind} needs a DOC to check")
    try:
        schema = load(schema_path(args.kind))
        document = load(args.document) if args.document else None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error reading inputs: {exc}", file=sys.stderr)
        return 2

    if document is None:
        label = "all registered scenarios"
        errors = check_scenarios(schema)
    else:
        label = "<stdin>" if args.document == "-" else args.document
        errors = validate(document, schema)
        if isinstance(document, dict) and args.kind in SEMANTIC_CHECKS:
            errors += SEMANTIC_CHECKS[args.kind](document)
    schema_name = f"schemas/{args.kind}.schema.json"
    if errors:
        print(f"{label} does NOT satisfy {schema_name}:", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
    else:
        print(f"{label} satisfies {schema_name}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
