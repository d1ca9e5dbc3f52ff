"""Pinned fault-run envelopes.

The sha256 of the comparable ``faults-quick`` envelope (``wall_clock_s`` and
``spec`` removed, canonical JSON) in five arms.  Any change to the fault
runtime that moves a single result bit — a mini-round record, a cost
counter, a fault metric — changes a digest.  The asyncio arm shares the
default arm's digest: the transport-equivalence contract covers fault runs.
The lossy arm (drops plus exponential latency) is the one whose records
carry the transport's ``net_*`` delivery telemetry, every field non-zero,
so it also pins how the transport counts deliveries, drops, out-of-order
arrivals and latency.
"""

import hashlib
import json

import pytest

from repro.spec import apply_overrides, get_scenario, run_scenario

PINNED = {
    "default": (
        {},
        "58f1a141e2b9b996f29e91bcc44ea52e2455977a0185376c357cd80e68b8b584",
    ),
    "quorum": (
        {"faults.quorum": True},
        "e1be49e42c45a5ab29c37cb10e21e3d86fa377c7db55f17994f3be0a8fbb737b",
    ),
    "crash-only": (
        {"faults.byzantine": 0.0},
        "0ed1e6a7cf00d0bb4b4650e6f1be9d4c31e0de32fb78dbe3ec6caa37837d5582",
    ),
    "asyncio": (
        {"transport.kind": "asyncio"},
        "58f1a141e2b9b996f29e91bcc44ea52e2455977a0185376c357cd80e68b8b584",
    ),
    "asyncio-lossy": (
        {
            "transport.kind": "asyncio",
            "transport.drop": 0.15,
            "transport.latency": "exponential",
        },
        "35107a6c4aa25e06321b88d8477a3d73817ab02a25fdc5a0db4d49593e6c4596",
    ),
}


def envelope_digest(result) -> str:
    data = result.to_dict()
    data.pop("wall_clock_s")
    data.pop("spec")
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("arm", sorted(PINNED))
def test_faults_quick_envelope_is_pinned(arm):
    overrides, digest = PINNED[arm]
    spec = apply_overrides(get_scenario("faults-quick"), overrides)
    assert envelope_digest(run_scenario(spec)) == digest
