"""Result containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.regret import RegretTracker
from repro.core.strategy import Strategy

__all__ = ["RoundRecord", "SimulationResult"]


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one simulated round."""

    round_index: int
    strategy: Strategy
    #: Expected throughput of the played strategy (sum of true means).
    expected_reward: float
    #: Observed throughput (sum of sampled rates).
    observed_reward: float
    #: Estimated weight of the played strategy under the policy's index.
    estimated_weight: Optional[float] = None
    #: Wall-clock seconds spent simulating the round (selection + play),
    #: recorded for benchmark trajectories; ``None`` when not measured.
    duration_s: Optional[float] = None


@dataclass
class SimulationResult:
    """Full trace of one policy run.

    The embedded :class:`~repro.core.regret.RegretTracker` holds the reward
    traces; the per-round records keep the played strategies and estimates so
    experiments can compute strategy-level statistics (e.g. how often the
    optimal strategy was played).
    """

    policy_name: str
    rounds: List[RoundRecord] = field(default_factory=list)
    tracker: RegretTracker = field(default_factory=RegretTracker)

    @property
    def num_rounds(self) -> int:
        """Number of simulated rounds."""
        return len(self.rounds)

    def expected_rewards(self) -> np.ndarray:
        """Per-round expected throughputs."""
        return np.array([record.expected_reward for record in self.rounds], dtype=float)

    def observed_rewards(self) -> np.ndarray:
        """Per-round observed throughputs."""
        return np.array([record.observed_reward for record in self.rounds], dtype=float)

    def estimated_weights(self) -> np.ndarray:
        """Per-round estimated strategy weights (NaN when not recorded)."""
        return np.array(
            [
                record.estimated_weight if record.estimated_weight is not None else np.nan
                for record in self.rounds
            ],
            dtype=float,
        )

    def round_durations(self) -> np.ndarray:
        """Per-round wall-clock seconds (NaN when not recorded)."""
        return np.array(
            [
                record.duration_s if record.duration_s is not None else np.nan
                for record in self.rounds
            ],
            dtype=float,
        )

    def total_wall_clock(self) -> float:
        """Total measured wall-clock seconds across all rounds."""
        durations = self.round_durations()
        return float(np.nansum(durations)) if durations.size else 0.0

    def strategy_play_counts(self) -> Dict[Strategy, int]:
        """How many times each distinct strategy was played."""
        counts: Dict[Strategy, int] = {}
        for record in self.rounds:
            counts[record.strategy] = counts.get(record.strategy, 0) + 1
        return counts

    def average_expected_throughput(self) -> float:
        """Mean per-round expected throughput over the whole run."""
        rewards = self.expected_rewards()
        return float(rewards.mean()) if rewards.size else 0.0
