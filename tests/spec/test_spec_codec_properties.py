"""Property tests for the spec boundary: JSON specs and dotted overrides.

Spec JSON arrives from files, HTTP bodies and store objects; override
values from ``--set``, ``--grid`` and sweep bodies.  Whatever arrives, the
decoder either builds a spec or raises :class:`SpecError` — never another
exception — and everything it builds round-trips through its own JSON with
the same content hash (the store key).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.events import LinkFlap, NodeArrival, NodeDeparture
from repro.spec import (
    DynamicsSpec,
    FaultSpec,
    ScenarioSpec,
    SpecError,
    apply_overrides,
    default_registry,
    get_scenario,
    spec_hash,
)

PRESETS = default_registry().names()

#: Arbitrary JSON, NaN and infinities included (``json.loads`` accepts them).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

finite = st.floats(allow_nan=False, allow_infinity=False)

#: Well-typed values for a handful of paths; drawn values that break a
#: cross-field rule are skipped, so every generated spec is valid.
VALID_CHANGES = {
    "seed": st.integers(0, 2**40),
    "description": st.text(max_size=12),
    "topology.num_nodes": st.integers(2, 60),
    "topology.average_degree": st.floats(0.5, 12.0),
    "channels.relative_std": st.floats(0.0, 1.0),
    "channels.rates": st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=4),
    "policies.0.label": st.text(min_size=1, max_size=8),
    "policies.0.r": st.integers(1, 4),
    "policies.0.solver": st.sampled_from(["auto", "exact", "greedy"]),
    "schedule.num_rounds": st.integers(1, 5000),
    "schedule.periods": st.lists(st.integers(1, 50), min_size=1, max_size=4),
    "faults": st.builds(
        FaultSpec, crash=st.floats(0.0, 0.2), byzantine=st.floats(0.0, 0.2)
    ),
    "dynamics": st.one_of(
        st.builds(DynamicsSpec, rate=st.floats(0.01, 1.0)),
        st.builds(
            DynamicsSpec,
            kind=st.just("trace"),
            trace=st.lists(
                st.one_of(
                    st.builds(NodeDeparture, round_index=st.integers(1, 9), node=st.integers(0, 9)),
                    st.builds(
                        NodeArrival,
                        round_index=st.integers(1, 9),
                        node=st.integers(0, 9),
                        x=finite,
                        y=finite,
                    ),
                    st.builds(LinkFlap, round_index=st.integers(1, 9), up=st.booleans()),
                ),
                min_size=1,
                max_size=3,
            ).map(tuple),
        ),
    ),
    "replication.replications": st.integers(1, 4),
    "alpha": st.floats(0.5, 8.0),
    "compute_optimal": st.booleans(),
}


@st.composite
def valid_specs(draw):
    spec = get_scenario(draw(st.sampled_from(PRESETS)))
    for path in draw(st.lists(st.sampled_from(sorted(VALID_CHANGES)), max_size=4)):
        try:
            spec = apply_overrides(spec, {path: draw(VALID_CHANGES[path])})
        except SpecError:
            pass
    return spec


def _paths(data, prefix=()):
    """Every field path of a spec dict (list entries by index)."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        path = prefix + (key,)
        yield path
        yield from _paths(value, path)


def _full_dict(spec):
    """``spec.to_dict()`` with unset optional nodes spelled out, so paths
    into them (``faults.byzantine``) are generated too."""
    data = spec.to_dict()
    for name, default in (("faults", FaultSpec()), ("dynamics", DynamicsSpec())):
        if data[name] is None:
            data[name] = default.to_dict()
    return data


def _round_trip(spec):
    return ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))


@settings(max_examples=150, deadline=None)
@given(valid_specs())
def test_valid_specs_round_trip_through_json_with_the_same_hash(spec):
    restored = _round_trip(spec)
    assert restored == spec
    assert spec_hash(restored) == spec_hash(spec)


@settings(max_examples=300, deadline=None)
@given(valid_specs(), st.data(), json_values)
def test_arbitrary_json_at_any_field_path_is_built_or_a_spec_error(spec, data, value):
    payload = spec.to_dict()
    path = data.draw(st.sampled_from(list(_paths(payload))))
    holder = payload
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    try:
        ScenarioSpec.from_dict(payload)
    except SpecError:
        pass


@settings(max_examples=300, deadline=None)
@given(valid_specs(), st.data(), json_values)
def test_arbitrary_override_is_a_spec_error_or_round_trips(spec, data, value):
    path = data.draw(st.sampled_from(list(_paths(_full_dict(spec)))))
    dotted = ".".join(str(key) for key in path)
    try:
        out = apply_overrides(spec, {dotted: value})
    except SpecError:
        return
    restored = _round_trip(out)
    assert restored == out
    assert spec_hash(restored) == spec_hash(out)
