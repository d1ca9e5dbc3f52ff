"""Regret accounting: regret, beta-regret and practical regret.

Definitions reproduced from the paper:

* *Regret* (eq. (1)): ``R(n) = n * R_1 - E[sum_t R_x(t)]`` where ``R_1`` is
  the expected throughput of the optimal fixed strategy.
* *beta-regret*: the same difference but against ``R_1 / beta`` — the right
  benchmark when the per-round MWIS is solved by a ``beta``-approximation.
* *Practical regret* (Section IV-E): only a fraction ``theta = t_d / t_a`` of
  each round is spent transmitting, so the gained throughput is scaled by
  ``theta`` and the benchmark stays ``R_1`` (Fig. 7a) or ``R_1 / beta``
  (Fig. 7b).

All helpers work on per-round *expected* rewards (sums of true means of the
played strategy); the tracker also records the observed rewards so empirical
curves can be plotted alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "cumulative_regret",
    "practical_regret",
    "RegretTracker",
]


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    return arr


def cumulative_regret(optimal_value: float, rewards: Sequence[float]) -> np.ndarray:
    """Cumulative regret trace ``R(n) = n * R_1 - sum_{t<=n} reward_t``.

    ``rewards`` are the per-round (expected or observed) throughputs of the
    evaluated policy; the returned array has one entry per round.
    """
    rewards_arr = _as_array(rewards)
    rounds = np.arange(1, rewards_arr.size + 1, dtype=float)
    return rounds * float(optimal_value) - np.cumsum(rewards_arr)


def practical_regret(
    optimal_value: float,
    rewards: Sequence[float],
    theta: float,
    beta: float = 1.0,
) -> np.ndarray:
    """Practical (effective-throughput) regret trace.

    The achieved per-round throughput is scaled by ``theta = t_d / t_a``
    (the fraction of the round actually spent transmitting) while the
    benchmark remains the full ``R_1 / beta`` — this is the quantity plotted
    in Fig. 7 and discussed in Section IV-E.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rewards_arr = _as_array(rewards) * float(theta)
    return cumulative_regret(float(optimal_value) / float(beta), rewards_arr)


@dataclass
class RegretTracker:
    """Accumulates per-round rewards of one policy run.

    Parameters
    ----------
    optimal_value:
        The optimal fixed-strategy expected throughput ``R_1`` (from the
        oracle / brute force solver).  ``None`` is allowed for large networks
        where the optimum is not computed (Fig. 8); regret queries then raise.
    theta:
        Effective-throughput factor ``t_d / t_a``.
    """

    optimal_value: Optional[float] = None
    theta: float = 1.0
    expected_rewards: List[float] = field(default_factory=list)
    observed_rewards: List[float] = field(default_factory=list)

    def record(self, expected_reward: float, observed_reward: float) -> None:
        """Record one round's expected and observed strategy throughput."""
        self.expected_rewards.append(float(expected_reward))
        self.observed_rewards.append(float(observed_reward))

    @property
    def num_rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self.expected_rewards)

    def _require_optimum(self) -> float:
        if self.optimal_value is None:
            raise ValueError(
                "optimal_value was not provided; regret cannot be computed"
            )
        return float(self.optimal_value)

    def regret_trace(self, use_observed: bool = False) -> np.ndarray:
        """Cumulative (ideal) regret per round."""
        rewards = self.observed_rewards if use_observed else self.expected_rewards
        return cumulative_regret(self._require_optimum(), rewards)

    def practical_regret_trace(
        self, beta: float = 1.0, use_observed: bool = False
    ) -> np.ndarray:
        """Cumulative practical regret per round (throughput scaled by theta)."""
        rewards = self.observed_rewards if use_observed else self.expected_rewards
        return practical_regret(self._require_optimum(), rewards, self.theta, beta)
