"""Batch simulation: ``R`` independent replications of one policy run.

The paper's regret curves (Figs. 6-8) are averages over independent
replications of the same experiment; :class:`BatchSimulator` runs those
replications in one call.  Every replication gets

* its own policy instance (built by a caller-supplied factory), and
* its own random stream spawned from one root :class:`numpy.random.SeedSequence`,

so replication ``i`` is reproducible in isolation no matter how many
replications run or how they are scheduled across worker threads.  A
single-replication batch reproduces a sequential :class:`~repro.sim.engine.Simulator`
run bit for bit when the simulator is handed the matching spawned stream
(see :func:`replication_rngs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Union

import numpy as np

from repro.channels.state import ChannelState
from repro.core.policies import Policy
from repro.graph.extended import ExtendedConflictGraph
from repro.obs import current_observer
from repro.sim.backends import (
    ExecutionBackend,
    ProcessBackend,
    ensure_picklable,
    fan_out,
    resolve_backend,
)
from repro.sim.engine import Simulator, check_shape
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingConfig

__all__ = [
    "BatchResult",
    "BatchSimulator",
    "child_seed_sequences",
    "replication_rngs",
]

#: Builds the policy of one replication; receives the replication index so
#: stochastic policies can derive per-replication generators from it.
PolicyFactory = Callable[[int], Policy]


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


def replication_rngs(
    seed: Optional[int], replications: int, first: int = 0
) -> List[np.random.Generator]:
    """Independent generator streams, one per replication.

    Streams are spawned from ``np.random.SeedSequence(seed)``, so replication
    ``i`` always sees the same stream regardless of the total replication
    count or of how replications are spread over jobs.  :class:`BatchSimulator`
    consumes exactly these streams — and so does each successive
    :meth:`repro.api.ChannelAccessSystem.simulate` call — which makes a
    single replication reproducible with the sequential simulator::

        rng = replication_rngs(seed, replications=1)[0]
        trace = Simulator(graph, channels, rng=rng).run(policy, n)

    ``first`` shifts the window: ``replication_rngs(seed, 1, first=i)[0]``
    is exactly the stream replication ``i`` of a larger batch would see,
    which is how sweep work units re-run a single replication in isolation.
    """
    if replications <= 0:
        raise ValueError(f"replications must be positive, got {replications}")
    return [
        np.random.default_rng(child)
        for child in child_seed_sequences(seed, replications, first=first)
    ]


@dataclass
class BatchResult:
    """Aggregate of ``R`` independent :class:`SimulationResult` traces."""

    policy_name: str
    results: List[SimulationResult] = field(default_factory=list)

    @property
    def num_replications(self) -> int:
        """Number of replications ``R``."""
        return len(self.results)

    @property
    def num_rounds(self) -> int:
        """Number of rounds per replication."""
        return self.results[0].num_rounds if self.results else 0

    def expected_reward_matrix(self) -> np.ndarray:
        """Per-round expected throughputs, shape ``(R, num_rounds)``."""
        return np.stack([r.expected_rewards() for r in self.results])

    def observed_reward_matrix(self) -> np.ndarray:
        """Per-round observed throughputs, shape ``(R, num_rounds)``."""
        return np.stack([r.observed_rewards() for r in self.results])

    def mean_expected_rewards(self) -> np.ndarray:
        """Replication-averaged per-round expected throughput."""
        return self.expected_reward_matrix().mean(axis=0)

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


class BatchSimulator:
    """Run ``R`` independent replications of a policy on one environment.

    Parameters mirror :class:`~repro.sim.engine.Simulator` except that the
    randomness is specified as a root ``seed`` (streamed to the replications
    via ``SeedSequence.spawn``) and the policy is specified as a factory so
    every replication learns from scratch.

    Parameters
    ----------
    graph:
        The extended conflict graph ``H``.
    channels:
        The ground-truth channel state, shared across replications.  Models
        whose sampling mutates internal state (``stateful = True``, e.g. the
        Gilbert-Elliott extension) would couple the replications, so batches
        with ``replications > 1`` refuse them.
    timing:
        Round timing; defaults to the paper's Table II values.
    optimal_value:
        Expected throughput ``R_1`` of the optimal fixed strategy, when known.
    seed:
        Root seed of the replication streams (``None`` draws OS entropy).
    """

    def __init__(
        self,
        graph: ExtendedConflictGraph,
        channels: ChannelState,
        timing: Optional[TimingConfig] = None,
        optimal_value: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        check_shape("channel state", channels, "the graph", graph)
        self._graph = graph
        self._channels = channels
        self._timing = timing if timing is not None else TimingConfig.paper_defaults()
        self._optimal_value = optimal_value
        self._seed = seed

    @property
    def graph(self) -> ExtendedConflictGraph:
        """The extended conflict graph."""
        return self._graph

    @property
    def channels(self) -> ChannelState:
        """The channel environment."""
        return self._channels

    @property
    def seed(self) -> Optional[int]:
        """Root seed of the replication streams."""
        return self._seed

    def run(
        self,
        policy_factory: PolicyFactory,
        num_rounds: int,
        replications: int = 1,
        jobs: int = 1,
        backend: Union[str, ExecutionBackend, None] = None,
        first_replication: int = 0,
    ) -> BatchResult:
        """Run ``replications`` independent simulations of ``num_rounds`` each.

        ``policy_factory`` is called with the **global** replication index
        (``first_replication + i``) and must return a fresh policy every
        time.  Results are always ordered by replication index and are
        bit-identical across backends because each replication owns its
        spawned stream and policy.

        ``backend`` picks the executor (see :mod:`repro.sim.backends`):
        ``"serial"``, ``"thread"`` (the historical ``jobs > 1`` behaviour
        and the default — GIL-bound for the pure-Python round loop) or
        ``"process"`` for true multicore.  The process backend pickles the
        work, so the policy factory must be a module-level callable — this
        is validated eagerly with an error naming the factory instead of an
        opaque worker-time crash.  The built-in policies
        (:class:`~repro.core.policies.CombinatorialUCBPolicy`,
        :class:`~repro.core.policies.LLRPolicy`,
        :class:`~repro.core.policies.OraclePolicy`) are process-safe; only
        the *factory* needs to be importable.

        ``first_replication`` shifts the seed-stream window so a batch of
        one can reproduce replication ``i`` of a larger batch exactly (the
        sweep layer's per-replication work units).
        """
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        if replications <= 0:
            raise ValueError(f"replications must be positive, got {replications}")
        if first_replication < 0:
            raise ValueError(
                f"first_replication must be non-negative, got {first_replication}"
            )
        if replications > 1 and self._channels.has_stateful_models:
            raise ValueError(
                "the channel state contains stateful models (e.g. "
                "Gilbert-Elliott); sharing them across replications would "
                "couple the runs, so batches require i.i.d. channel models"
            )
        executor = resolve_backend(
            backend, default="thread" if jobs > 1 else "serial"
        )
        if isinstance(executor, ProcessBackend):
            ensure_picklable(policy_factory, f"the policy factory {policy_factory!r}")
        run_one = partial(
            _run_replication, self._graph, self._channels, self._timing,
            self._optimal_value, policy_factory, num_rounds,
        )
        children = child_seed_sequences(
            self._seed, replications, first=first_replication
        )
        with current_observer().span(
            "sim.batch", replications=replications, num_rounds=num_rounds
        ):
            results = fan_out(
                executor, run_one, list(enumerate(children, first_replication)), jobs
            )
        return BatchResult(policy_name=results[0].policy_name, results=results)


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
