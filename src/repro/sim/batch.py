"""Batch simulation: ``R`` independent replications of one policy run.

The paper's regret curves (Figs. 6-8) are averages over independent
replications of the same experiment;
:meth:`repro.api.ChannelAccessSystem.simulate_batch` runs those
replications in one call.  Every replication gets

* its own policy instance (built by a caller-supplied factory), and
* its own random stream spawned from one root :class:`numpy.random.SeedSequence`,

so replication ``i`` is reproducible in isolation no matter how many
replications run or how they are scheduled across workers.  A
single-replication batch reproduces a sequential :class:`~repro.sim.engine.Simulator`
run bit for bit when the simulator is handed the matching spawned stream
(see :func:`child_seed_sequences`).  This module holds the stream derivation,
the one-replication worker and the batch result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.obs import current_observer
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult

__all__ = ["BatchResult", "child_seed_sequences"]


def child_seed_sequences(
    seed, count: int, first: int = 0
) -> List[np.random.SeedSequence]:
    """Children ``first .. first + count - 1`` of a root seed, without mutation.

    Equivalent to ``np.random.SeedSequence(seed).spawn(...)`` but derived
    from the root's ``(entropy, spawn_key)`` directly, so a caller-owned
    ``SeedSequence`` passed as ``seed`` is accepted as-is and never has its
    spawn counter advanced.  Child ``i`` is always the same stream no matter
    how often or in what order children are requested.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if first < 0:
        raise ValueError(f"first must be non-negative, got {first}")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [
        np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=(*root.spawn_key, first + index),
            pool_size=root.pool_size,
        )
        for index in range(count)
    ]


@dataclass
class BatchResult:
    """Aggregate of ``R`` independent :class:`SimulationResult` traces."""

    policy_name: str
    results: List[SimulationResult] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Number of rounds per replication."""
        return self.results[0].num_rounds if self.results else 0

    def expected_reward_matrix(self) -> np.ndarray:
        """Per-round expected throughputs, shape ``(R, num_rounds)``."""
        return np.stack([r.expected_rewards() for r in self.results])

    def mean_regret_trace(self) -> np.ndarray:
        """Replication-averaged cumulative (ideal) regret trace.

        Requires the batch to have been run with ``optimal_value`` set.
        """
        return np.stack(
            [r.tracker.regret_trace() for r in self.results]
        ).mean(axis=0)

    def total_wall_clock(self) -> float:
        """Summed measured wall-clock seconds across all replications."""
        return float(sum(r.total_wall_clock() for r in self.results))


def _run_replication(
    graph, channels, timing, optimal_value, policy_factory, num_rounds, replication
) -> SimulationResult:
    """Replication ``(index, seed sequence)`` under a ``sim.replication`` span
    (module-level, so it crosses process boundaries under any start method)."""
    index, child = replication
    with current_observer().span("sim.replication", replication=index):
        policy = policy_factory(index)
        simulator = Simulator(
            graph,
            channels,
            timing=timing,
            optimal_value=optimal_value,
            rng=np.random.default_rng(child),
        )
        return simulator.run(policy, num_rounds)
