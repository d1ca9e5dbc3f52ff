"""Dotted-path overrides for frozen spec dataclasses.

One helper serves ``repro run <scenario> --set key=value``, ``repro sweep``
(``--set`` and every ``--grid`` point), ``repro submit`` and the serve API's
sweep grids, and library code that derives a variant of a registered
preset.  Paths walk nested dataclasses and tuples::

    apply_overrides(spec, {"seed": 9,
                           "schedule.num_rounds": 200,
                           "policies.0.r": 1,
                           "schedule.periods": [1, 5]})

Values are checked against the replaced field's *declared* type with the
same decoder ``ScenarioSpec.from_dict`` uses, so an override is accepted
exactly when the equivalent JSON spec would be: lists become tuples
(checked entry by entry), ints widen to floats on float fields, and a JSON
object landing on a nested spec is decoded as that spec.  A dotted path
into an unset optional node (``faults.byzantine`` while ``faults`` is
``null``) starts from that node's defaults.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Sequence, Union, get_args, get_origin

from repro._codec import DecodeError, decoder, loads, schema
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
            value = loads(raw, key)
        except DecodeError:
            value = raw
        overrides[key] = value
    return overrides


def apply_overrides(obj, overrides: Mapping[str, object]):
    """Return a copy of ``obj`` with every dotted-path override applied.

    ``obj`` is a spec dataclass; ``None`` values are skipped so
    unset CLI flags pass through untouched.  Raises :class:`SpecError`
    naming the offending path on unknown fields, bad indices or values that
    do not match the field's declared type.
    """
    for path, value in overrides.items():
        if value is None:
            continue
        try:
            obj = _apply_one(obj, type(obj), path.split("."), value, path)
        except DecodeError as err:
            raise SpecError(str(err)) from None
    return obj


def _apply_one(obj, hint, parts, value, full_path: str):
    head, rest = parts[0], parts[1:]
    if get_origin(hint) is Union:  # Optional[X]
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if obj is None and dataclasses.is_dataclass(hint):
        # A dotted path into an unset optional node starts from its defaults.
        obj = hint()
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
        args = get_args(hint)
        item_hint = args[0] if args[-1] is Ellipsis else args[index]
        new_item = (
            _apply_one(obj[index], item_hint, rest, value, full_path)
            if rest
            else decoder(item_hint)(value, f"--set {full_path}")
        )
        return obj[:index] + (new_item,) + obj[index + 1:]
    if dataclasses.is_dataclass(obj):
        allowed = schema(type(obj))
        if head not in allowed:
            raise SpecError(
                f"--set {full_path}: {type(obj).__name__} has no field "
                f"{head!r}; available fields: {sorted(allowed)}"
            )
        new_value = (
            _apply_one(getattr(obj, head), allowed[head].hint, rest, value, full_path)
            if rest
            else allowed[head].decode(value, f"--set {full_path}")
        )
        try:
            return dataclasses.replace(obj, **{head: new_value})
        except SpecError as err:
            raise SpecError(f"--set {full_path}: {err}") from None
    raise SpecError(
        f"--set {full_path}: cannot descend into {type(obj).__name__} "
        f"with {head!r}"
    )

