"""The ``repro.scenario-result/v1`` envelope boundary.

Envelopes arrive from store objects, worker processes and files.  Whatever
arrives, :meth:`ExperimentResult.from_dict` either builds an envelope that
writes back exactly what it read or raises :class:`SpecError` — never
another exception.  Every number ``to_dict``/``json.dumps`` can write is
accepted, NaN included, so a NaN result is not taken for a corrupt one.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import (
    ExperimentResult,
    SpecError,
    default_registry,
    get_scenario,
    run_scenario,
)

QUICK_PRESETS = [
    name for name in default_registry().names() if name.endswith(("-quick", "-smoke"))
]

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

numbers = st.integers() | st.floats()


@pytest.fixture(scope="module")
def envelope():
    return run_scenario(get_scenario("fig8-quick")).to_dict()


def _paths(data, prefix=()):
    """Every key path of a JSON document (list entries by index)."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _same(a, b) -> bool:
    """Equality that counts NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("preset", QUICK_PRESETS)
def test_every_quick_preset_envelope_round_trips(preset):
    data = json.loads(run_scenario(get_scenario(preset)).to_json())
    assert ExperimentResult.from_dict(data).to_dict() == data


@settings(max_examples=300, deadline=None)
@given(st.data(), json_values)
def test_arbitrary_json_at_any_path_is_an_envelope_or_a_spec_error(envelope, data, value):
    payload = json.loads(json.dumps(envelope))
    where = data.draw(st.sampled_from([(), *_paths(payload)]))
    if where:
        holder = payload
        for key in where[:-1]:
            holder = holder[key]
        holder[where[-1]] = value
    else:
        payload = value
    try:
        result = ExperimentResult.from_dict(payload)
    except SpecError:
        return
    assert _same(result.to_dict(), payload)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.text(max_size=8), numbers, max_size=4),
    st.lists(st.lists(numbers, max_size=3), max_size=3),
    numbers,
)
def test_every_number_json_writes_reads_back(summary, rows, wall_clock):
    result = ExperimentResult(
        scenario="s",
        mode="per-round",
        spec={},
        summary=summary,
        replication_series={"x": rows},
        records={"cell": summary},
        wall_clock_s=wall_clock,
    )
    restored = ExperimentResult.from_json(result.to_json())
    assert _same(restored.to_dict(), result.to_dict())


class TestRejected:
    def payload(self, envelope, **changes):
        return {**json.loads(json.dumps(envelope)), **changes}

    def test_string_summary_value(self, envelope):
        payload = self.payload(envelope, summary={"theta": "high"})
        with pytest.raises(SpecError, match=r"result.summary\['theta'\]: expected a number"):
            ExperimentResult.from_dict(payload)

    def test_boolean_wall_clock(self, envelope):
        with pytest.raises(SpecError, match="result.wall_clock_s: expected a number"):
            ExperimentResult.from_dict(self.payload(envelope, wall_clock_s=True))

    @pytest.mark.parametrize("row", [["a"], [None], [[1.0]], [True]])
    def test_non_numeric_replication_row(self, envelope, row):
        payload = self.payload(envelope, replication_series={"x": [row]})
        with pytest.raises(SpecError, match=r"result.replication_series\['x'\]\[0\]"):
            ExperimentResult.from_dict(payload)

    def test_record_that_is_not_an_object(self, envelope):
        payload = self.payload(envelope, records={"cell": 5})
        with pytest.raises(SpecError, match="expected a JSON object"):
            ExperimentResult.from_dict(payload)

    def test_empty_scenario_name(self, envelope):
        with pytest.raises(SpecError, match="non-empty"):
            ExperimentResult.from_dict(self.payload(envelope, scenario=""))

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe", b"[" * 100000 + b"]" * 100000, b"1" * 5000],
        ids=["not-utf8", "nested", "long-integer"],
    )
    def test_undecodable_json_text(self, text):
        with pytest.raises(SpecError, match="^result: "):
            ExperimentResult.from_json(text)
