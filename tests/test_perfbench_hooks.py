"""perfbench patches ``repro`` entry points by name; keep every one of them.

``perfbench/layers.py`` wraps class attributes and module globals for its
per-layer split (``--trace 1``), and ``perfbench/bench.py``'s probe wraps the
protocol engine and the process pool.  A rename that drops one of those
names breaks the harness without failing any other test, so this installs
both in a fresh interpreter, the way the harness does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_HOOKS = """
import bench
import layers
import repro.sweep.engine

layers.install_layers(layers.Tracer())
bench.Probe(stop_at_first_unit=False, speed=bench.Speed(in_regions=False)).install()
assert callable(repro.sweep.engine.execute_unit)
"""


def test_perfbench_installs_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", INSTALL_HOOKS],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_neighborhood_entry_count_is_the_sum_of_ball_sizes(monkeypatch):
    """``graph.neighborhood_entries`` sums ``len`` over every ball of a
    protocol's ``transport_neighborhoods()``; the lazily made ball views
    must still yield each ball whole (checked on fig8-quick)."""
    from repro.distributed.ptas import DistributedRobustPTAS
    from repro.graph.neighborhoods import protocol_radii, r_hop_neighborhood
    from repro.spec import get_scenario
    from repro.spec.runner import run_scenario

    protocols = []
    init = DistributedRobustPTAS.__init__

    def recording_init(self, adjacency, *args, **kwargs):
        init(self, adjacency, *args, **kwargs)
        protocols.append((self, adjacency))

    monkeypatch.setattr(DistributedRobustPTAS, "__init__", recording_init)
    run_scenario(get_scenario("fig8-quick"))
    assert protocols
    for protocol, adjacency in protocols:
        counted = sum(
            len(ball)
            for table in protocol.transport_neighborhoods().values()
            for ball in table
        )
        assert counted == sum(
            len(r_hop_neighborhood(adjacency, vertex, hops))
            for hops in protocol_radii(protocol.r)
            for vertex in range(len(adjacency))
        )
