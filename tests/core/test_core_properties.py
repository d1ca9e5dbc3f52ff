"""Property-based tests (hypothesis) for the learning core.

Invariants fuzzed here:

* the estimator's incremental mean always equals the batch mean of the fed
  observations, and counts always equal the number of observations;
* the eq. (3) index always dominates the sample mean (optimism);
* regret traces are exactly linear in the benchmark and additive over rounds;
* strategies are value objects: building them from any permutation of the
  same assignment yields equal, equally-hashed objects.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimators import WeightEstimator
from repro.core.regret import cumulative_regret, practical_regret
from repro.core.strategy import Strategy


@settings(max_examples=80, deadline=None)
@given(
    observations=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_estimator_incremental_mean_matches_batch_mean(observations):
    estimator = WeightEstimator(num_arms=1)
    for value in observations:
        estimator.update({0: value})
    assert estimator.count(0) == len(observations)
    assert estimator.mean(0) == pytest.approx(float(np.mean(observations)), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    num_arms=st.integers(min_value=1, max_value=10),
    round_index=st.integers(min_value=1, max_value=10_000),
    plays=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40),
)
def test_index_is_always_optimistic(num_arms, round_index, plays):
    estimator = WeightEstimator(num_arms)
    rng = np.random.default_rng(0)
    for arm in plays:
        if arm < num_arms:
            estimator.update({arm: float(rng.uniform(0, 1))})
    index = estimator.index_weights(round_index)
    assert (index >= estimator.means - 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(
    rewards=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    optimum=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_regret_trace_is_additive_over_rounds(rewards, optimum):
    trace = cumulative_regret(optimum, rewards)
    per_round = np.diff(np.concatenate([[0.0], trace]))
    assert np.allclose(per_round, optimum - np.asarray(rewards), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    rewards=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    optimum=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    theta=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_practical_regret_is_regret_of_scaled_throughput(rewards, optimum, theta):
    practical = practical_regret(optimum, rewards, theta=theta, beta=1.0)
    scaled = cumulative_regret(optimum, [theta * r for r in rewards])
    assert np.allclose(practical, scaled, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    assignment=st.dictionaries(
        keys=st.integers(min_value=0, max_value=20),
        values=st.integers(min_value=0, max_value=5),
        max_size=10,
    )
)
def test_strategy_is_order_independent_and_hashable(assignment):
    items = list(assignment.items())
    forward = Strategy.from_assignment(dict(items))
    backward = Strategy.from_assignment(dict(reversed(items)))
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert forward.as_dict() == assignment
    assert forward.nodes() == frozenset(assignment)
