"""Pinned spec JSON and store keys.

Two sha256 digests lock the serialized form of every registered scenario
and the content address of every built-in sweep unit.  A change to the spec
codec, the canonical form or an override path that moves a single key, a
number's int/float spelling or a field's order changes a digest — and with
it every result already in a store.
"""

import hashlib
import json

from repro.spec import default_registry, spec_hash
from repro.sweep import builtin_plans, plan_units

#: sha256 over ``[name, spec_hash(spec), json.dumps(spec.to_dict())]`` of
#: every registered preset, in registry order.
PRESETS_DIGEST = "508f55c9e6feea27c614f640d0bf1924257454c22a30b50e5c6c37358265d4cd"

#: sha256 over the ``unit_hash`` of every unit of every point of every
#: built-in sweep plan, in plan-name order.
SWEEP_UNITS_DIGEST = "591d8a3825ca27b1bbeeae19fe0ffadbb636ccb85d2d4639f80f5bc560bc6c78"


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def presets_digest() -> str:
    registry = default_registry()
    rows = []
    for name in registry.names():
        spec = registry.get(name)
        rows.append([name, spec_hash(spec), json.dumps(spec.to_dict())])
    return _digest(rows)


def sweep_units_digest() -> str:
    plans = builtin_plans()
    hashes = [
        unit.hash
        for name in sorted(plans)
        for point in plans[name].points()
        for unit in plan_units(point)
    ]
    return _digest(hashes)


def test_registered_preset_json_and_hashes_are_pinned():
    assert presets_digest() == PRESETS_DIGEST


def test_builtin_sweep_unit_hashes_are_pinned():
    assert sweep_units_digest() == SWEEP_UNITS_DIGEST
