"""High-level convenience API.

Most users want to: build a network, attach channel statistics, pick a policy
and a strategy-decision engine, then simulate.  :class:`ChannelAccessSystem`
wires those pieces together with the paper's defaults (distributed robust
PTAS with ``r = 2`` and the combinatorial-UCB learning policy) while keeping
every component swappable.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from repro.channels.state import ChannelState
from repro.core.policies import (
    CombinatorialUCBPolicy,
    LLRPolicy,
    OraclePolicy,
    Policy,
)
from repro.distributed.framework import DistributedMWISSolver
from repro.graph.conflict_graph import ConflictGraph
from repro.mwis.base import MWISSolver
from repro.mwis.exact import ExactMWISSolver
from repro.obs import current_observer
from repro.sim.backends import (
    ExecutionBackend,
    ProcessBackend,
    ensure_picklable,
    fan_out,
    resolve_backend,
)
from repro.sim.batch import BatchResult, _run_replication, child_seed_sequences
from repro.sim.engine import Simulator, check_shape
from repro.sim.periodic import PeriodicResult, PeriodicSimulator
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingConfig

__all__ = ["ChannelAccessSystem"]


class ChannelAccessSystem:
    """End-to-end wiring of one network + channel environment + policies.

    Parameters
    ----------
    conflict_graph:
        The original conflict graph ``G`` (users + conflicts + channel count).
    channels:
        The ground-truth channel state; must match ``G`` in shape.
    timing:
        Round timing (defaults to the paper's Table II values).
    seed:
        Root seed of the per-run random streams — an int, ``None`` (OS
        entropy) or a ``numpy.random.SeedSequence``.

    Notes
    -----
    Each :meth:`simulate` / :meth:`simulate_periodic` call draws from its own
    random stream: the ``k``-th run on a system consumes child ``k`` spawned
    from the system seed (the streams of
    :func:`repro.sim.batch.child_seed_sequences`), so run ``k`` is
    bit-reproducible regardless of how long earlier runs were, and a
    sequential ``simulate`` call matches replication 0 of
    :meth:`simulate_batch` exactly.  *Behaviour change (intentional):*
    earlier versions shared one mutable generator across calls, so a second
    run's draws silently depended on how many rounds the first consumed;
    traces from those versions are not bitwise comparable.
    """

    def __init__(
        self,
        conflict_graph: ConflictGraph,
        channels: ChannelState,
        timing: Optional[TimingConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        check_shape("channel state", channels, "the conflict graph", conflict_graph)
        self.conflict_graph = conflict_graph
        self.extended_graph = conflict_graph.extended_graph()
        self.channels = channels
        self.timing = timing if timing is not None else TimingConfig.paper_defaults()
        # Root of the per-run streams.  Resolved once so that seed=None
        # (OS entropy) still gives every run of this system a stream from
        # the same root.
        self._root_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._runs_started = 0

    def _next_run_rng(self) -> np.random.Generator:
        """The random stream of the next sequential run (child ``k`` of the seed)."""
        (child,) = child_seed_sequences(
            self._root_seq, 1, first=self._runs_started
        )
        self._runs_started += 1
        return np.random.default_rng(child)

    # ------------------------------------------------------------------
    # Component factories
    # ------------------------------------------------------------------
    def distributed_solver(
        self, r: int = 2, max_mini_rounds: Optional[int] = None
    ) -> DistributedMWISSolver:
        """The paper's strategy-decision engine (Algorithm 3)."""
        return DistributedMWISSolver(
            self.extended_graph, r=r, max_mini_rounds=max_mini_rounds
        )

    def reward_scale(self) -> float:
        """Exploration-bonus scale: the largest true mean rate of the network.

        The regret analysis assumes rewards in ``[0, 1]``; the Section V
        experiments use kbps rates, so the exploration bonus is scaled by the
        reward range (the radio's maximum supported rate, which is public
        hardware knowledge, not a learned quantity).
        """
        return float(self.channels.mean_matrix().max())

    def paper_policy(
        self, solver: Optional[MWISSolver] = None, r: int = 2
    ) -> CombinatorialUCBPolicy:
        """The paper's learning policy (Algorithm 2) with the chosen solver.

        Without an explicit solver the distributed robust PTAS is used, which
        is the full distributed scheme evaluated in the paper.
        """
        solver = solver if solver is not None else self.distributed_solver(r=r)
        return CombinatorialUCBPolicy(
            self.extended_graph, solver=solver, reward_scale=self.reward_scale()
        )

    def llr_policy(
        self, solver: Optional[MWISSolver] = None, r: int = 2
    ) -> LLRPolicy:
        """The LLR baseline policy the paper compares against."""
        solver = solver if solver is not None else self.distributed_solver(r=r)
        return LLRPolicy(
            self.extended_graph, solver=solver, reward_scale=self.reward_scale()
        )

    def oracle_policy(self, solver: Optional[MWISSolver] = None) -> OraclePolicy:
        """The genie policy playing the optimal fixed strategy."""
        solver = solver if solver is not None else ExactMWISSolver()
        return OraclePolicy(
            self.extended_graph, self.channels.mean_vector(), solver=solver
        )

    def optimal_value(self) -> float:
        """Expected throughput ``R_1`` of the optimal fixed strategy.

        Computed by exact MWIS on the true means — only feasible for small
        networks, exactly as in the paper's regret study.
        """
        return self.oracle_policy().optimal_value()

    # ------------------------------------------------------------------
    # Simulation entry points
    # ------------------------------------------------------------------
    def simulate(
        self,
        policy: Policy,
        num_rounds: int,
        optimal_value: Optional[float] = None,
    ) -> SimulationResult:
        """Run ``policy`` for ``num_rounds`` rounds with per-round updates.

        The ``k``-th run on this system consumes its own stream (child ``k``
        of the system seed), so it is reproducible in isolation; the first
        run matches replication 0 of :meth:`simulate_batch` bit for bit.
        """
        simulator = Simulator(
            self.extended_graph,
            self.channels,
            timing=self.timing,
            optimal_value=optimal_value,
            rng=self._next_run_rng(),
        )
        return simulator.run(policy, num_rounds)

    def simulate_batch(
        self,
        policy_factory: Callable[[int], Policy],
        num_rounds: int,
        replications: int = 1,
        jobs: int = 1,
        optimal_value: Optional[float] = None,
        backend: Union[str, ExecutionBackend, None] = None,
        first_replication: int = 0,
    ) -> BatchResult:
        """Run ``replications`` independent simulations of one policy.

        ``policy_factory`` receives the global replication index and must
        return a fresh policy instance; each replication gets its own random
        stream spawned from this system's seed, so the batch is reproducible
        and replication 0 matches a sequential :meth:`simulate`-style run
        driven by ``numpy.random.default_rng(child_seed_sequences(seed, 1)[0])``.

        ``backend`` picks the executor (see :mod:`repro.sim.backends`):
        ``"serial"``, ``"thread"`` (the default when ``jobs > 1``; GIL-bound
        for the pure-Python round loop) or ``"process"`` for true multicore.
        The process backend pickles the work, so ``policy_factory`` must be
        a module-level callable; this is checked up front with an error
        naming the factory.  Results are ordered by replication index and
        are bit-identical across backends.

        ``first_replication`` shifts the seed-stream window so a
        one-replication batch reproduces replication ``i`` of a larger batch
        bit for bit (the sweep layer's per-replication work units).
        """
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        if replications <= 0:
            raise ValueError(f"replications must be positive, got {replications}")
        if first_replication < 0:
            raise ValueError(
                f"first_replication must be non-negative, got {first_replication}"
            )
        if replications > 1 and self.channels.has_stateful_models:
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
            _run_replication, self.extended_graph, self.channels, self.timing,
            optimal_value, policy_factory, num_rounds,
        )
        # The resolved root (not the raw seed): with seed=None the root
        # entropy is drawn once in __init__, so batches and sequential runs
        # on this system share one stream family.
        children = child_seed_sequences(
            self._root_seq, replications, first=first_replication
        )
        with current_observer().span(
            "sim.batch", replications=replications, num_rounds=num_rounds
        ):
            results = fan_out(
                executor, run_one, list(enumerate(children, first_replication)), jobs
            )
        return BatchResult(policy_name=results[0].policy_name, results=results)

    def simulate_periodic(
        self, policy: Policy, num_periods: int, period_slots: int
    ) -> PeriodicResult:
        """Run ``policy`` with strategy decisions every ``period_slots`` slots.

        Like :meth:`simulate`, each call consumes its own per-run stream
        spawned from the system seed.
        """
        simulator = PeriodicSimulator(
            self.extended_graph,
            self.channels,
            period_slots=period_slots,
            timing=self.timing,
            rng=self._next_run_rng(),
        )
        return simulator.run(policy, num_periods)
