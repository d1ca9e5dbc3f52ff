"""Fault runs trace through the one protocol engine.

A traced ``faults-quick`` run must split into the same ``protocol.run`` /
``protocol.mini_round`` / ``protocol.phase`` spans as an honest run, nested
under ``faults.run``, with the QR accusation phase as ``phase="QR"`` when
quorum checking is on, and count its traffic into the ``net.*`` counters.
"""

import dataclasses

from repro.obs import TracingObserver, use_observer
from repro.spec import apply_overrides, get_scenario, run_scenario


def children(spans, parent, name):
    return [s for s in spans if s.parent_id == parent.span_id and s.name == name]


def test_fault_run_splits_into_protocol_phases():
    spec = apply_overrides(get_scenario("faults-quick"), {"faults.quorum": True})
    observer = TracingObserver()
    with use_observer(observer):
        result = run_scenario(spec)
    spans = observer.spans()
    assert "faults.mini_round" not in {s.name for s in spans}

    (fault_run,) = [s for s in spans if s.name == "faults.run"]
    (protocol_run,) = children(spans, fault_run, "protocol.run")
    wb_phases = children(spans, protocol_run, "protocol.phase")
    assert [s.attrs["phase"] for s in wb_phases] == ["WB", "QR"]

    rounds = children(spans, protocol_run, "protocol.mini_round")
    assert len(rounds) == fault_run.attrs["mini_rounds"] > 0
    for mini_round in rounds:
        phases = children(spans, mini_round, "protocol.phase")
        assert [s.attrs["phase"] for s in phases] == ["LD", "LB", "QR"]

    # The fault run's traffic is counted next to the honest baseline run the
    # cell also executes.
    honest = run_scenario(dataclasses.replace(spec, faults=None))
    (label,) = result.records
    for counter, record_key in (
        ("net.messages", "total_messages"),
        ("net.deliveries", "total_deliveries"),
    ):
        assert observer.metrics.counter_value(counter) == (
            result.records[label][record_key] + honest.records[label][record_key]
        )


def test_qr_phase_only_when_quorum_is_on():
    observer = TracingObserver()
    with use_observer(observer):
        run_scenario(get_scenario("faults-quick"))
    phases = {
        s.attrs["phase"] for s in observer.spans() if s.name == "protocol.phase"
    }
    assert phases == {"WB", "LD", "LB"}
