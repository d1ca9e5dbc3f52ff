"""Tests for repro.core.bounds (Theorem 1 and Theorem 5 bounds)."""

import pytest

from repro.core.bounds import theorem1_regret_bound


class TestTheorem1Bound:
    def test_zero_horizon_only_constant_term(self):
        bound = theorem1_regret_bound(0, num_nodes=3, num_arms=9, beta=1.0)
        assert bound == pytest.approx(27.0)

    def test_monotone_in_horizon(self):
        short = theorem1_regret_bound(100, 5, 15, beta=1.0)
        long = theorem1_regret_bound(1000, 5, 15, beta=1.0)
        assert long > short

    def test_sublinear_growth_rate(self):
        # The bound grows like n^{5/6}, so doubling n should less than double it
        # once the polynomial terms dominate.
        n = 10 ** 6
        ratio = theorem1_regret_bound(2 * n, 5, 15, beta=1.0) / theorem1_regret_bound(
            n, 5, 15, beta=1.0
        )
        assert ratio < 2.0

    def test_larger_networks_have_larger_bounds(self):
        small = theorem1_regret_bound(1000, 5, 15, beta=1.0)
        large = theorem1_regret_bound(1000, 15, 45, beta=1.0)
        assert large > small

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theorem1_regret_bound(-1, 3, 9, 1.0)
        with pytest.raises(ValueError):
            theorem1_regret_bound(10, 0, 9, 1.0)
        with pytest.raises(ValueError):
            theorem1_regret_bound(10, 3, 9, 0.5)


class TestBoundVersusSimulation:
    def test_measured_beta_regret_below_theorem1_bound(self, rng):
        # E8: on a tiny instance the measured cumulative beta-regret must stay
        # below the (very loose) Theorem-1 guarantee.
        import numpy as np

        from repro.api import ChannelAccessSystem
        from repro.channels.state import ChannelState
        from repro.graph.topology import connected_random_network

        graph = connected_random_network(5, 2, rng=rng)
        channels = ChannelState.from_mean_matrix(
            np.random.default_rng(0).uniform(0.1, 1.0, size=(5, 2)),
            relative_std=0.05,
        )
        system = ChannelAccessSystem(graph, channels, seed=1)
        optimum = system.optimal_value()
        result = system.simulate(
            system.paper_policy(r=1), num_rounds=50, optimal_value=optimum
        )
        # At beta = 1 the beta-regret is the plain cumulative regret.
        measured = result.tracker.regret_trace()[-1]
        bound = theorem1_regret_bound(50, num_nodes=5, num_arms=10, beta=1.0)
        assert measured <= bound
