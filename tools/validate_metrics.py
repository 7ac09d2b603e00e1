#!/usr/bin/env python3
"""Validate an obs metrics JSON export against metrics.schema.json.

CI runners don't ship the jsonschema package, so this implements the small
JSON-Schema subset the schema actually uses (type, enum, required,
properties, additionalProperties, items, minimum), then runs a semantic
pass the schema language can't express: each family's values must carry
exactly the fields its kind implies, and ring-series samples must be in
non-decreasing simulated-time order.

Usage: validate_metrics.py <schema.json> <export.json>
Exits non-zero with one line per violation.
"""
import json
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _is_type(value, name):
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        # 5.0 exported by a C++ double-renderer still counts as integral.
        return (isinstance(value, int) and not isinstance(value, bool)) or (
            isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def validate(value, schema, path, errors):
    if "type" in schema and not _is_type(value, schema["type"]):
        errors.append(f"{path}: expected {schema['type']}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(sub, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key '{key}'")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


_KIND_FIELDS = {
    "counter": {"value"},
    "gauge": {"value"},
    "series": {"capacity", "recorded", "dropped", "samples"},
}


def semantic_pass(export, errors):
    for name, family in export.items():
        kind = family.get("kind")
        want = _KIND_FIELDS.get(kind)
        if want is None:
            continue  # the schema pass already flagged it
        for i, cell in enumerate(family.get("values", [])):
            path = f"$.{name}.values[{i}]"
            have = set(cell) - {"labels"}
            if have != want:
                errors.append(f"{path}: kind '{kind}' needs fields {sorted(want)}, "
                              f"has {sorted(have)}")
                continue
            if kind == "series":
                times = [s[0] for s in cell["samples"]]
                if times != sorted(times):
                    errors.append(f"{path}: samples out of simulated-time order")
                if len(cell["samples"]) > cell["capacity"]:
                    errors.append(f"{path}: more samples than capacity")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        schema = json.load(f)
    with open(sys.argv[2]) as f:
        export = json.load(f)
    errors = []
    validate(export, schema, "$", errors)
    if not errors:  # shape must hold before semantics make sense
        semantic_pass(export, errors)
    if not isinstance(export, dict) or not export:
        errors.append("$: export is empty — no metric families collected")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"OK {sys.argv[2]}: {len(export)} metric families valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
