"""Tests for the high-level ChannelAccessSystem facade and package exports."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.api import ChannelAccessSystem
from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy, OraclePolicy
from repro.distributed.framework import DistributedMWISSolver
from repro.graph.topology import connected_random_network
from repro.mwis.exact import ExactMWISSolver


@pytest.fixture
def system(rng):
    graph = connected_random_network(6, 3, rng=rng)
    channels = ChannelState.random_paper_rates(6, 3, rng=rng)
    return ChannelAccessSystem(graph, channels, seed=3)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module_name",
        ["repro"]
        + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        ],
    )
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"


class TestSystemFactories:
    def test_mismatched_shapes_rejected(self, rng):
        graph = connected_random_network(5, 2, rng=rng)
        channels = ChannelState.random_paper_rates(4, 2, rng=rng)
        with pytest.raises(ValueError):
            ChannelAccessSystem(graph, channels)

    def test_paper_policy_uses_distributed_solver_by_default(self, system):
        policy = system.paper_policy()
        assert isinstance(policy, CombinatorialUCBPolicy)
        assert isinstance(policy.solver, DistributedMWISSolver)

    def test_policies_share_reward_scale(self, system):
        assert system.paper_policy().reward_scale == pytest.approx(
            system.reward_scale()
        )
        assert isinstance(system.llr_policy(), LLRPolicy)

    def test_oracle_and_optimal_value(self, system):
        oracle = system.oracle_policy()
        assert isinstance(oracle, OraclePolicy)
        assert system.optimal_value() == pytest.approx(oracle.optimal_value())
        assert system.optimal_value() > 0

    def test_custom_solver_injection(self, system):
        policy = system.paper_policy(solver=ExactMWISSolver())
        assert isinstance(policy.solver, ExactMWISSolver)


class TestSystemSimulation:
    def test_simulate_produces_result(self, system):
        result = system.simulate(
            system.paper_policy(r=1),
            num_rounds=30,
            optimal_value=system.optimal_value(),
        )
        assert result.num_rounds == 30
        assert result.tracker.optimal_value == pytest.approx(system.optimal_value())

    def test_simulate_periodic(self, system):
        result = system.simulate_periodic(
            system.paper_policy(r=1), num_periods=10, period_slots=5
        )
        assert result.num_periods == 10
        assert result.period_slots == 5

    def test_sequential_runs_match_batch_replications(self, rng):
        # Run k on a system consumes child k of the seed: the k-th
        # sequential simulate() equals batch replication k bit for bit.
        graph = connected_random_network(6, 3, rng=rng)
        channels = ChannelState.random_paper_rates(6, 3, rng=rng)
        seq_system = ChannelAccessSystem(graph, channels, seed=13)
        first = seq_system.simulate(seq_system.paper_policy(r=1), 20)
        second = seq_system.simulate(seq_system.paper_policy(r=1), 20)
        batch_system = ChannelAccessSystem(graph, channels, seed=13)
        batch = batch_system.simulate_batch(
            lambda i: batch_system.paper_policy(r=1), 20, replications=2
        )
        assert (
            first.observed_rewards() == batch.results[0].observed_rewards()
        ).all()
        assert (
            second.observed_rewards() == batch.results[1].observed_rewards()
        ).all()

    def test_seed_none_still_shares_one_stream_family(self, rng):
        # With seed=None the root entropy is drawn once in __init__, so
        # sequential and batch runs on the same system stay coherent.
        graph = connected_random_network(6, 3, rng=rng)
        channels = ChannelState.random_paper_rates(6, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=None)
        sequential = system.simulate(system.paper_policy(r=1), 15)
        batch = system.simulate_batch(
            lambda i: system.paper_policy(r=1), 15, replications=1
        )
        again = system.simulate_batch(
            lambda i: system.paper_policy(r=1), 15, replications=1
        )
        assert (
            sequential.observed_rewards() == batch.results[0].observed_rewards()
        ).all()
        assert (
            batch.results[0].observed_rewards()
            == again.results[0].observed_rewards()
        ).all()

    def test_second_run_is_independent_of_first_run_length(self, rng):
        graph = connected_random_network(6, 3, rng=rng)
        channels = ChannelState.random_paper_rates(6, 3, rng=rng)
        short_first = ChannelAccessSystem(graph, channels, seed=5)
        short_first.simulate(short_first.paper_policy(r=1), 3)
        after_short = short_first.simulate(short_first.paper_policy(r=1), 15)
        long_first = ChannelAccessSystem(graph, channels, seed=5)
        long_first.simulate(long_first.paper_policy(r=1), 40)
        after_long = long_first.simulate(long_first.paper_policy(r=1), 15)
        assert (
            after_short.observed_rewards() == after_long.observed_rewards()
        ).all()

    def test_quickstart_docstring_flow(self, rng):
        # The flow shown in the package docstring must actually work.
        graph = connected_random_network(6, 3, rng=rng)
        channels = ChannelState.random_paper_rates(6, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=7)
        policy = system.paper_policy(r=1)
        result = system.simulate(
            policy, num_rounds=20, optimal_value=system.optimal_value()
        )
        trace = result.tracker.practical_regret_trace()
        assert trace.shape == (20,)
        assert np.isfinite(trace).all()
