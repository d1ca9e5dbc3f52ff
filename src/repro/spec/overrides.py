"""Dotted-path overrides for frozen spec dataclasses.

One helper serves ``repro run <scenario> --set key=value``, ``repro sweep``
and ``repro submit``, and library code that derives a variant of a
registered preset.  Paths walk nested dataclasses and tuples::

    apply_overrides(spec, {"seed": 9,
                           "schedule.num_rounds": 200,
                           "policies.0.r": 1,
                           "schedule.periods": [1, 5]})

Values are coerced to the replaced field's shape: lists become tuples
(recursively) when they land on a tuple field, ints widen to floats on
float fields, and JSON objects landing on a nested spec are deserialized
through that spec's ``from_dict``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Mapping, Sequence

from repro.spec.scenario import SpecError

__all__ = ["apply_overrides", "parse_set_items"]


def parse_set_items(items: Sequence[str]) -> Dict[str, object]:
    """Parse ``KEY=VALUE`` strings (CLI ``--set``) into an override mapping.

    Values are parsed as JSON when possible (``3``, ``2.5``, ``true``,
    ``[1,5]``, ``{"kind": "ring"}``) and fall back to plain strings
    (``--set topology.kind=ring``).
    """
    overrides: Dict[str, object] = {}
    for item in items:
        key, separator, raw = item.partition("=")
        key = key.strip()
        if not separator or not key:
            raise SpecError(
                f"--set {item!r}: expected KEY=VALUE "
                "(e.g. --set schedule.num_rounds=200)"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def apply_overrides(obj, overrides: Mapping[str, object]):
    """Return a copy of ``obj`` with every dotted-path override applied.

    ``obj`` may be any (frozen) dataclass; ``None`` values are skipped so
    unset CLI flags pass through untouched.  Raises :class:`SpecError`
    naming the offending path on unknown fields or bad indices.
    """
    for path, value in overrides.items():
        if value is None:
            continue
        obj = _apply_one(obj, path.split("."), value, path)
    return obj


def _apply_one(obj, parts, value, full_path: str):
    head, rest = parts[0], parts[1:]
    if isinstance(obj, tuple):
        try:
            index = int(head)
        except ValueError:
            raise SpecError(
                f"--set {full_path}: {head!r} must be a tuple index "
                f"(0..{len(obj) - 1})"
            ) from None
        if not (0 <= index < len(obj)):
            raise SpecError(
                f"--set {full_path}: index {index} out of range "
                f"(0..{len(obj) - 1})"
            )
        item = obj[index]
        new_item = (
            _apply_one(item, rest, value, full_path)
            if rest
            else _coerce(item, value, full_path)
        )
        return obj[:index] + (new_item,) + obj[index + 1:]
    if dataclasses.is_dataclass(obj):
        names = {f.name for f in dataclasses.fields(obj)}
        if head not in names:
            raise SpecError(
                f"--set {full_path}: {type(obj).__name__} has no field "
                f"{head!r}; available fields: {sorted(names)}"
            )
        current = getattr(obj, head)
        new_value = (
            _apply_one(current, rest, value, full_path)
            if rest
            else _coerce(current, value, full_path)
        )
        try:
            return dataclasses.replace(obj, **{head: new_value})
        except SpecError as err:
            raise SpecError(f"--set {full_path}: {err}") from None
    raise SpecError(
        f"--set {full_path}: cannot descend into {type(obj).__name__} "
        f"with {head!r}"
    )


def _tupleize(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tupleize(item) for item in value)
    return value


def _coerce(current, value, full_path: str):
    """Shape ``value`` like the field it replaces, or fail with the path.

    Scalar overrides are type-checked against the current field value so a
    bad ``--set`` fails here with an actionable message instead of crashing
    later inside validation or the simulator.
    """
    if dataclasses.is_dataclass(current) and isinstance(value, Mapping):
        from_dict = getattr(type(current), "from_dict", None)
        if callable(from_dict):
            return from_dict(value, full_path)
        raise SpecError(
            f"--set {full_path}: cannot build a {type(current).__name__} "
            "from a JSON object"
        )
    if isinstance(current, tuple):
        if isinstance(value, (list, tuple)):
            return _tupleize(value)
        raise SpecError(
            f"--set {full_path}: expected a list (e.g. [1,5]), got {value!r}"
        )
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise SpecError(
                f"--set {full_path}: expected true or false, got {value!r}"
            )
        return value
    if isinstance(current, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"--set {full_path}: expected an integer, got {value!r}"
            )
        return value
    if isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(
                f"--set {full_path}: expected a number, got {value!r}"
            )
        return float(value)
    if isinstance(current, str):
        if not isinstance(value, str):
            raise SpecError(
                f"--set {full_path}: expected a string, got {value!r}"
            )
        return value
    # Optional fields currently holding None carry no type information;
    # lists still become tuples so specs keep round-tripping.
    return _tupleize(value)
