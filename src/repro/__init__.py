"""repro: reproduction of "Almost Optimal Channel Access in Multi-Hop Networks
With Unknown Channel Variables" (Zhou et al., ICDCS 2014).

The package implements the paper's distributed channel-access scheme for
multi-hop cognitive radio networks — a linearly-combinatorial multi-armed
bandit whose per-round decision is a maximum weighted independent set (MWIS)
problem on the extended conflict graph — together with every substrate the
evaluation needs: unit-disk conflict graphs, i.i.d. channel models, exact /
greedy / robust-PTAS MWIS solvers, the distributed robust PTAS protocol with
message-passing simulation, the LLR baseline, regret accounting and the
experiment harness reproducing Figs. 6-8 and Table II.

Quickstart::

    import numpy as np
    from repro import ChannelAccessSystem, ChannelState, connected_random_network

    rng = np.random.default_rng(7)
    graph = connected_random_network(15, 3, rng=rng)
    channels = ChannelState.random_paper_rates(15, 3, rng=rng)
    system = ChannelAccessSystem(graph, channels, seed=7)
    policy = system.paper_policy()
    result = system.simulate(policy, num_rounds=200,
                             optimal_value=system.optimal_value())
    print(result.tracker.practical_regret_trace()[-1])

Or declaratively, through the scenario layer (``repro.spec``)::

    from repro import get_scenario, run_scenario

    result = run_scenario(get_scenario("fig7-quick"))
    print(result.series["practical_regret[Algorithm2]"][-1])
"""

from repro.api import ChannelAccessSystem
from repro.channels import (
    ChannelState,
    GaussianChannel,
    PAPER_RATES_KBPS,
)
from repro.core import (
    CombinatorialUCBPolicy,
    LLRPolicy,
    NaiveStrategyUCBPolicy,
    OraclePolicy,
    RandomPolicy,
    EpsilonGreedyPolicy,
    Strategy,
    WeightEstimator,
    RegretTracker,
)
from repro.distributed import (
    DistributedMWISSolver,
    DistributedRobustPTAS,
    VertexStatus,
)
from repro.graph import (
    ConflictGraph,
    ExtendedConflictGraph,
    connected_random_network,
    random_network,
    linear_network,
    grid_network,
    ring_network,
    star_network,
)
from repro.mwis import (
    ExactMWISSolver,
    GreedyMWISSolver,
    GreedyRatioMWISSolver,
    RobustPTASSolver,
    IndependentSet,
)
from repro.sim import (
    BatchResult,
    PeriodicSimulator,
    Simulator,
    TimingConfig,
)
from repro.spec import (
    ChannelSpec,
    ExperimentResult,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    ScheduleSpec,
    SpecError,
    TopologySpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "ChannelAccessSystem",
    "ChannelState",
    "GaussianChannel",
    "PAPER_RATES_KBPS",
    "CombinatorialUCBPolicy",
    "LLRPolicy",
    "NaiveStrategyUCBPolicy",
    "OraclePolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "Strategy",
    "WeightEstimator",
    "RegretTracker",
    "DistributedMWISSolver",
    "DistributedRobustPTAS",
    "VertexStatus",
    "ConflictGraph",
    "ExtendedConflictGraph",
    "connected_random_network",
    "random_network",
    "linear_network",
    "grid_network",
    "ring_network",
    "star_network",
    "ExactMWISSolver",
    "GreedyMWISSolver",
    "GreedyRatioMWISSolver",
    "RobustPTASSolver",
    "IndependentSet",
    "BatchResult",
    "PeriodicSimulator",
    "Simulator",
    "TimingConfig",
    "ScenarioSpec",
    "TopologySpec",
    "ChannelSpec",
    "PolicySpec",
    "ScheduleSpec",
    "ReplicationSpec",
    "SpecError",
    "ExperimentResult",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "__version__",
]
