"""Learning core: combinatorial multi-armed bandit policies for channel access.

This is the paper's primary contribution: a linearly-combinatorial MAB
formulation whose per-round decision is an MWIS instance over the extended
conflict graph, learned with per-arm statistics (``K = N * M`` arms) instead
of per-strategy statistics (``M^N`` strategies).

Modules:

* :mod:`repro.core.strategy` -- the strategy (channel assignment) value object.
* :mod:`repro.core.estimators` -- per-arm sample means, play counts and the
  exploration index of eq. (3).
* :mod:`repro.core.policies` -- the paper's policy, the LLR baseline, a naive
  strategy-level UCB, oracle / random / epsilon-greedy baselines.
* :mod:`repro.core.regret` -- regret, beta-regret and practical (effective
  throughput) regret accounting.
* :mod:`repro.core.bounds` -- the theoretical regret bounds of Theorems 1 and 5.
"""

from repro.core.strategy import Strategy
from repro.core.estimators import WeightEstimator
from repro.core.policies import (
    Policy,
    CombinatorialUCBPolicy,
    LLRPolicy,
    NaiveStrategyUCBPolicy,
    OraclePolicy,
    RandomPolicy,
    EpsilonGreedyPolicy,
)
from repro.core.regret import (
    RegretTracker,
    cumulative_regret,
    practical_regret,
)
from repro.core.bounds import theorem1_regret_bound

__all__ = [
    "Strategy",
    "WeightEstimator",
    "Policy",
    "CombinatorialUCBPolicy",
    "LLRPolicy",
    "NaiveStrategyUCBPolicy",
    "OraclePolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "RegretTracker",
    "cumulative_regret",
    "practical_regret",
    "theorem1_regret_bound",
]
