"""Tracing must never change results: the core observability contract.

For EVERY registered preset (shrunk to keep the suite fast), running the
scenario under a :class:`TracingObserver` must produce a result envelope
bit-identical to the untraced run.  Protocol presets are additionally
checked over the asyncio transport, where instrumentation sits closest to
the delivery path.  The preset list is discovered from the registry, so
new presets are covered automatically.
"""

import pytest

from repro.obs import NULL_OBSERVER, TracingObserver, current_observer, use_observer
from repro.spec import apply_overrides, default_registry, get_scenario, run_scenario

ALL_PRESETS = default_registry().names()

PROTOCOL_PRESETS = [
    name for name in ALL_PRESETS if get_scenario(name).schedule.mode == "protocol"
]


def comparable_envelope(result):
    """The envelope as a dict, minus fields allowed to differ between runs."""
    data = result.to_dict()
    data.pop("wall_clock_s", None)
    data["summary"] = dict(data["summary"])
    data["summary"].pop("simulated_wall_clock_s", None)
    return data


def traced_and_untraced(spec):
    untraced = comparable_envelope(run_scenario(spec))
    observer = TracingObserver()
    with use_observer(observer):
        traced_result = run_scenario(spec)
    traced = comparable_envelope(traced_result)
    return untraced, traced, observer


def test_registry_is_not_empty():
    # Guards the parametrization below against silently going empty.
    assert len(ALL_PRESETS) >= 10
    assert "fig6-smoke" in PROTOCOL_PRESETS


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_traced_envelope_is_bit_identical(name, shrunk_spec):
    untraced, traced, observer = traced_and_untraced(shrunk_spec(name))
    assert traced == untraced
    # The trace actually recorded the run — tracing silently disabled
    # would make this test vacuous.
    assert observer.spans()
    assert observer.spans()[0].name == "run"


@pytest.mark.parametrize("name", PROTOCOL_PRESETS)
def test_traced_asyncio_envelope_is_bit_identical(name, shrunk_spec):
    spec = apply_overrides(shrunk_spec(name), {"transport.kind": "asyncio"})
    untraced, traced, observer = traced_and_untraced(spec)
    assert traced == untraced
    assert observer.metrics.counter_value("net.deliveries") > 0


def test_traced_lossy_run_matches_its_untraced_twin(shrunk_spec):
    # Lossy runs diverge from the oracle but must still be deterministic
    # under tracing: same seed, same drops, same envelope.
    spec = apply_overrides(
        shrunk_spec("fig6-smoke"),
        {"transport.kind": "asyncio", "transport.drop": 0.2},
    )
    untraced, traced, observer = traced_and_untraced(spec)
    assert traced == untraced
    assert observer.metrics.counter_value("net.dropped") > 0


def test_observer_artifact_rides_along_when_tracing(shrunk_spec):
    spec = shrunk_spec("fig6-smoke")
    observer = TracingObserver()
    with use_observer(observer):
        result = run_scenario(spec)
    assert result.artifacts["observability"] is observer
    # Artifacts never serialize, so the envelope stays observer-free.
    assert "artifacts" not in result.to_dict()


def test_untraced_run_attaches_no_observer(shrunk_spec):
    result = run_scenario(shrunk_spec("fig6-smoke"))
    assert "observability" not in result.artifacts
    assert current_observer() is NULL_OBSERVER
