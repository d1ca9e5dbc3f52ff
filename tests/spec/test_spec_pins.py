"""Pinned spec JSON, store keys and simulation envelopes.

Two sha256 digests lock the serialized form of every registered scenario
and the content address of every built-in sweep unit.  A change to the spec
codec, the canonical form or an override path that moves a single key, a
number's int/float spelling or a field's order changes a digest — and with
it every result already in a store.

A third set of digests locks the result envelope of every simulation preset
(per-round, periodic and dynamic), shrunk, plus the three quick presets at
two replications, serially and on two jobs.  Any change to the learning
loop, the replication fan-out or the environment draw that moves a single
result bit changes a digest.
"""

import hashlib
import json

import pytest

from repro.spec import apply_overrides, default_registry, run_scenario, spec_hash
from repro.sweep import builtin_plans, plan_units

#: sha256 over ``[name, spec_hash(spec), json.dumps(spec.to_dict())]`` of
#: every registered preset, in registry order.
PRESETS_DIGEST = "508f55c9e6feea27c614f640d0bf1924257454c22a30b50e5c6c37358265d4cd"

#: sha256 over the ``unit_hash`` of every unit of every point of every
#: built-in sweep plan, in plan-name order.
SWEEP_UNITS_DIGEST = "591d8a3825ca27b1bbeeae19fe0ffadbb636ccb85d2d4639f80f5bc560bc6c78"


#: sha256 of the envelope of ``(preset, overrides)``, shrunk, with ``spec``,
#: ``wall_clock_s`` and ``summary.simulated_wall_clock_s`` removed.  The
#: echoed spec is the only envelope field ``replication.jobs`` reaches, so a
#: jobs=2 case shares its serial twin's digest.
SIMULATION_ENVELOPES = {
    "churn-paper": ({}, "90a2ad7cb7e28e1857019fdb59da2d87bea373dd4659942ac6903f25a541558b"),
    "churn-quick": ({}, "ea4997d40bbd0ded1867f5216aa8b134b611d1159b2825a3e57793eaadc6a537"),
    "fig7-paper": ({}, "80242038f2cce5a512921c29605e992d86e752f7d4ac5681d1bfd028b018047e"),
    "fig7-quick": ({}, "a4901a8e904394c07e8f76576915aa0e6fc3a595b24726deecb009c350c005fd"),
    "fig7-smoke": ({}, "46ac6b9bead61a51c243625e10564947b76266bb255875d278c024b769a2bd1e"),
    "fig8-paper": ({}, "10e5fd3340edc32c3e02735f318b180a22d62014df9aa630e552f4d341eb17bb"),
    "fig8-quick": ({}, "8ad94928e3250137f26ec3a2f3e7593bd461933f520ccff906f0c877960ec18b"),
    "mobility-quick": ({}, "d47113152fbef6fb4fe5a16b6a74c2f4b27adc3cffd43d3415ae3ab50024e4d8"),
}
_R2_DIGESTS = {
    "fig7-quick": "14e5cfd2df9cdac307d81229633be0564faf73ac70bbb1ea926586952cc3af9b",
    "fig8-quick": "448a1fd146c4bd26d117cb2275871f8ab3fda5619c2347a3af6a9d51ca5e7e7d",
    "churn-quick": "b01e17ad87c4f07358bb8ced5c86894df4ac8871e43d4da102f6262ec2f23b2f",
}
#: The shrunk periodic presets keep only y in {1, 5}; R_P(z) sums y slot
#: rewards left to right, and a regrouped sum changes bits from y = 9 on.
SIMULATION_ENVELOPES["fig8-quick@y10-20"] = (
    {"schedule.periods": [10, 20]},
    "b57a6ead5f82ea6f002190482b869e348ab8d68482d8aeddf1c69497bb3f23a4",
)
for _name, _digest_value in _R2_DIGESTS.items():
    SIMULATION_ENVELOPES[f"{_name}@R2"] = (
        {"replication.replications": 2}, _digest_value
    )
    SIMULATION_ENVELOPES[f"{_name}@R2-jobs2"] = (
        {"replication.replications": 2, "replication.jobs": 2}, _digest_value
    )


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


def test_every_simulation_preset_has_an_envelope_pin():
    registry = default_registry()
    simulation = {
        name
        for name in registry.names()
        if registry.get(name).schedule.mode != "protocol"
    }
    assert simulation == {case for case in SIMULATION_ENVELOPES if "@" not in case}


@pytest.mark.parametrize("case", sorted(SIMULATION_ENVELOPES))
def test_simulation_envelope_is_pinned(case, shrunk_spec):
    overrides, digest = SIMULATION_ENVELOPES[case]
    overrides = {"replication.replications": 1, **overrides}
    spec = apply_overrides(shrunk_spec(case.split("@")[0]), overrides)
    data = run_scenario(spec).to_dict()
    del data["spec"], data["wall_clock_s"]
    data["summary"].pop("simulated_wall_clock_s", None)
    assert _digest(data) == digest
