"""Periodic-update simulation (Section V-C of the paper).

Updating the weights (and re-running the distributed strategy decision) every
time slot costs a fixed ``t_s`` per slot, so only ``theta = t_d / t_a`` of the
time is spent transmitting.  Section V-C instead updates once per *period* of
``y`` slots: the strategy is decided in the first slot of the period and the
remaining ``y - 1`` slots only transmit.

The per-period actual average throughput is (paper notation, ``z``-th period):

    R_P(z) = [ R_x(zy + 1) * t_d  +  sum_{t = zy+2}^{(z+1) y} R_x(t) * t_a ] / (y * t_a)

and the per-period estimated throughput is

    W_P(z) = [ (y - 1) * t_a + t_d ] * W_x(zy + 1) / (y * t_a)

The experiment of Fig. 8 tracks the running averages of both quantities for
``y`` in {1, 5, 10, 20} and compares the paper's policy against LLR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channels.state import ChannelState
from repro.core.policies import Policy
from repro.graph.extended import ExtendedConflictGraph
from repro.obs import current_observer
from repro.sim.engine import check_shape, learning_loop
from repro.sim.metrics import running_average
from repro.sim.results import StepTrace
from repro.sim.timing import TimingConfig

__all__ = ["PeriodicResult", "PeriodicSimulator"]


@dataclass
class PeriodicResult:
    """Trace of a periodic-update run, one row per period: the ``observed``
    column holds R_P(z), ``estimated`` holds W_P(z) and ``expected`` the
    true-mean throughput under the same time weighting."""

    policy_name: str
    period_slots: int
    trace: StepTrace

    @property
    def num_periods(self) -> int:
        """Number of simulated periods."""
        return len(self.trace)

    def actual_throughputs(self) -> np.ndarray:
        """Per-period actual throughput R_P(z)."""
        return self.trace.column("observed")

    def estimated_throughputs(self) -> np.ndarray:
        """Per-period estimated throughput W_P(z)."""
        return self.trace.column("estimated")

    def average_actual_trace(self) -> np.ndarray:
        """Running average of the actual throughput (the paper's R~_P(z))."""
        return running_average(self.actual_throughputs())

    def average_estimated_trace(self) -> np.ndarray:
        """Running average of the estimated throughput (the paper's W~_P(z))."""
        return running_average(self.estimated_throughputs())


class PeriodicSimulator:
    """Simulate a policy with strategy decisions once every ``y`` slots."""

    def __init__(
        self,
        graph: ExtendedConflictGraph,
        channels: ChannelState,
        period_slots: int,
        timing: Optional[TimingConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if period_slots < 1:
            raise ValueError(f"period_slots must be >= 1, got {period_slots}")
        check_shape("channel state", channels, "the graph", graph)
        self._graph = graph
        self._channels = channels
        self._period_slots = period_slots
        self._timing = timing if timing is not None else TimingConfig.paper_defaults()
        self._rng = rng if rng is not None else np.random.default_rng()

    def run(self, policy: Policy, num_periods: int) -> PeriodicResult:
        """Run ``policy`` for ``num_periods`` update periods."""
        if num_periods <= 0:
            raise ValueError(f"num_periods must be positive, got {num_periods}")
        t_a = self._timing.round_ms
        t_d = self._timing.data_transmission_ms
        y = self._period_slots
        period_time = y * t_a
        estimation_scale = ((y - 1) * t_a + t_d) / period_time

        trace = StepTrace(num_periods)
        steps = learning_loop(
            policy, num_periods, self._graph, self._channels, self._rng,
            span=("sim.period", "period"), slots=y, estimate=True,
        )
        with current_observer().span(
            "sim.periodic_run",
            policy=policy.name,
            period_slots=y,
            num_periods=num_periods,
        ):
            for step in steps:
                weighted_observed = 0.0
                for offset, slot_reward in enumerate(step.rewards):
                    # First slot of the period loses t_s to the strategy decision.
                    weighted_observed += slot_reward * (t_d if offset == 0 else t_a)
                estimated_weight = step.estimated_weight
                trace.append(
                    step.strategy,
                    expected=step.expected_reward * estimation_scale,
                    observed=weighted_observed / period_time,
                    estimated=(
                        estimated_weight * estimation_scale
                        if estimated_weight is not None
                        else None
                    ),
                )
        return PeriodicResult(policy.name, y, trace)
