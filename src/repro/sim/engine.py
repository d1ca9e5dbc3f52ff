"""Round-by-round simulator: the outer loop of Algorithm 2.

The simulator owns the environment (extended conflict graph + channel state)
and drives one policy through ``n`` rounds:

1. the policy picks a strategy (for the paper's scheme this internally runs
   the distributed robust PTAS on the estimated weights);
2. the picked (node, channel) pairs transmit and observe sampled data rates;
3. the observations are fed back to the policy (eqs. (5), (6));
4. expected / observed / estimated throughputs are recorded.

Every produced strategy is checked to be an independent set of ``H`` — a
conflicting assignment would invalidate the throughput accounting, so it is
treated as a hard error rather than silently scored.

:func:`learning_loop` is this loop for every simulator of :mod:`repro.sim`;
the periodic one plays each decision for ``y`` slots, the dynamic one applies
topology events in its ``before_decision`` hook.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.channels.state import ChannelState
from repro.core.policies import Policy
from repro.core.strategy import Strategy
from repro.graph.extended import ExtendedConflictGraph
from repro.obs import current_observer
from repro.sim.results import SimulationResult, StepTrace
from repro.sim.timing import TimingConfig

__all__ = ["Simulator"]


def check_shape(what: str, obj, against: str, target) -> None:
    """Raise a :class:`ValueError` unless ``obj`` is ``target``'s ``N x M``."""
    if obj.num_nodes != target.num_nodes or obj.num_channels != target.num_channels:
        raise ValueError(
            f"{what} shape ({obj.num_nodes}x{obj.num_channels}) does not match "
            f"{against} ({target.num_nodes}x{target.num_channels})"
        )


class Step(NamedTuple):
    """One decision of :func:`learning_loop`: its round (or period) index,
    the strategy, the observed reward of each slot it played, its expected
    reward, its index weight (``None`` unless requested and available), what
    ``before_decision`` returned and ``perf_counter()`` at its start."""

    index: int
    strategy: Strategy
    rewards: List[float]
    expected_reward: float
    estimated_weight: Optional[float]
    context: object
    started_at: float


def learning_loop(
    policy: Policy,
    num_steps: int,
    arm_graph: ExtendedConflictGraph,
    channels: ChannelState,
    rng: np.random.Generator,
    *,
    span: Tuple[str, str] = ("sim.round", "round"),
    slots: int = 1,
    estimate: bool = False,
    check: Optional[Callable[[Strategy], None]] = None,
    before_decision: Optional[Callable[[int], object]] = None,
) -> Iterator[Step]:
    """Yield ``num_steps`` decide → play → observe steps of ``policy``.

    Step ``k`` runs ``before_decision(k)``, decides at slot
    ``t = (k - 1) * slots + 1``, checks the strategy (by default: independent
    on ``arm_graph``) and plays it for ``slots`` slots, all inside a span
    ``span[0]`` with attribute ``span[1] = k``.  The step is yielded after
    its span closes, before step ``k + 1`` starts.
    """
    obs = current_observer()
    span_name, span_attr = span
    for index in range(1, num_steps + 1):
        with obs.span(span_name, **{span_attr: index}):
            started_at = time.perf_counter()
            context = before_decision(index) if before_decision is not None else None
            slot = (index - 1) * slots + 1
            decision_started = time.perf_counter()
            strategy = policy.select_strategy(slot)
            obs.observe("sim.select_strategy_s", time.perf_counter() - decision_started)
            if check is not None:
                check(strategy)
            elif not strategy.is_feasible(arm_graph):
                raise RuntimeError(
                    f"policy produced an infeasible strategy: {strategy!r}"
                )
            arms = strategy.arm_array(arm_graph)
            estimated_weight = (
                _estimated_weight(policy, slot, arms) if estimate else None
            )
            rewards = []
            for offset in range(slots):
                values = channels.sample_arm_array(arms, rng)
                rewards.append(float(values.sum()))
                policy.observe_arms(slot + offset, strategy, arms, values)
            expected_reward = channels.expected_reward_arms(arms)
        yield Step(
            index, strategy, rewards, expected_reward, estimated_weight, context, started_at
        )


def _estimated_weight(
    policy: Policy, round_index: int, arms: np.ndarray
) -> Optional[float]:
    """Weight the policy's own index assigns to the played strategy.

    Only available for index-based policies exposing ``estimated_weights``;
    other policies simply record ``None``.  The sum is a single vectorized
    gather over the arm-index array.
    """
    estimated_weights = getattr(policy, "estimated_weights", None)
    if not callable(estimated_weights):
        return None
    weights = np.asarray(estimated_weights(round_index), dtype=float)
    return float(weights[arms].sum())


class Simulator:
    """Simulate a learning policy on a fixed network and channel state.

    Parameters
    ----------
    graph:
        The extended conflict graph ``H``.
    channels:
        The ground-truth channel state (must have matching ``N`` and ``M``).
    timing:
        Round timing; defaults to the paper's Table II values (``theta = 0.5``).
    optimal_value:
        Expected throughput ``R_1`` of the optimal fixed strategy, when known
        (the result's regret tracker).  ``None`` for large networks.
    rng:
        Random generator driving the channel draws.
    """

    def __init__(
        self,
        graph: ExtendedConflictGraph,
        channels: ChannelState,
        timing: Optional[TimingConfig] = None,
        optimal_value: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        check_shape("channel state", channels, "the graph", graph)
        self._graph = graph
        self._channels = channels
        self._timing = timing if timing is not None else TimingConfig.paper_defaults()
        self._optimal_value = optimal_value
        self._rng = rng if rng is not None else np.random.default_rng()

    def run(self, policy: Policy, num_rounds: int) -> SimulationResult:
        """Run ``policy`` for ``num_rounds`` rounds and return the full trace."""
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        trace = StepTrace(num_rounds)
        steps = learning_loop(
            policy, num_rounds, self._graph, self._channels, self._rng, estimate=True
        )
        with current_observer().span("sim.run", policy=policy.name, num_rounds=num_rounds):
            for step in steps:
                trace.append(
                    step.strategy,
                    expected=step.expected_reward,
                    observed=step.rewards[0],
                    estimated=step.estimated_weight,
                    duration=time.perf_counter() - step.started_at,
                )
        return SimulationResult(
            policy.name, trace, self._optimal_value, self._timing.theta
        )
