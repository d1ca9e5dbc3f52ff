"""End-to-end integration tests across subsystems.

These tests exercise the full pipeline the paper describes: build a network,
extend it, learn channel qualities online with the distributed strategy
decision, and check the resulting behaviour against the paper's claims
(conflict-free transmissions, learning progress, solver interchangeability).
"""

import pytest

from repro.api import ChannelAccessSystem
from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy
from repro.distributed.framework import DistributedMWISSolver
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network, grid_network, linear_network
from repro.mwis.exact import ExactMWISSolver
from repro.mwis.greedy import GreedyRatioMWISSolver
from repro.mwis.robust_ptas import RobustPTASSolver
from repro.sim.engine import Simulator


class TestFullSchemeOnSmallNetworks:
    def test_every_round_is_conflict_free(self, rng):
        graph = connected_random_network(10, 3, rng=rng)
        channels = ChannelState.random_paper_rates(10, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=5)
        policy = system.paper_policy(r=1)
        result = system.simulate(policy, num_rounds=40)
        extended = system.extended_graph
        for strategy in result.trace.strategies:
            arms = strategy.arms(extended)
            assert extended.is_independent_set(arms)

    def test_learning_approaches_the_oracle_with_exact_decisions(self, rng):
        # With an exact per-round solver, the only gap to the oracle is the
        # learning itself, which should shrink over time.
        graph = connected_random_network(7, 3, rng=rng)
        channels = ChannelState.random_paper_rates(7, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=11)
        optimum = system.optimal_value()
        policy = system.paper_policy(solver=ExactMWISSolver())
        result = system.simulate(policy, num_rounds=300, optimal_value=optimum)
        expected = result.expected_rewards()
        late_average = expected[-50:].mean()
        assert late_average >= 0.9 * optimum

    def test_distributed_and_centralized_solvers_are_both_competitive(self, rng):
        graph = connected_random_network(9, 3, rng=rng)
        channels = ChannelState.random_paper_rates(9, 3, rng=rng)
        extended = ExtendedConflictGraph(graph)
        weights = channels.mean_vector()
        adjacency = extended.adjacency_sets()
        exact = ExactMWISSolver().solve(adjacency, weights).weight
        for solver in (
            RobustPTASSolver(epsilon=0.5),
            GreedyRatioMWISSolver(),
            DistributedMWISSolver(extended, r=2),
        ):
            achieved = solver.solve(adjacency, weights).weight
            assert achieved <= exact + 1e-9
            assert achieved >= 0.5 * exact

    def test_linear_worst_case_full_round_trip(self, rng):
        # Fig. 5 topology end-to-end: the scheme still produces feasible,
        # reasonably good schedules despite the sequential leader elections.
        graph = linear_network(10, 2)
        channels = ChannelState.random_paper_rates(10, 2, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=2)
        policy = system.paper_policy(r=1)
        result = system.simulate(policy, num_rounds=30)
        assert result.expected_rewards().mean() > 0

    def test_grid_topology_round_trip(self, rng):
        graph = grid_network(3, 3, 3)
        channels = ChannelState.random_paper_rates(9, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=4)
        result = system.simulate(system.paper_policy(r=1), num_rounds=25)
        assert result.num_rounds == 25


class TestSolverInterchangeability:
    @pytest.mark.parametrize(
        "solver_factory",
        [
            lambda extended: ExactMWISSolver(),
            lambda extended: RobustPTASSolver(epsilon=0.5),
            lambda extended: GreedyRatioMWISSolver(),
            lambda extended: DistributedMWISSolver(extended, r=1),
        ],
        ids=["exact", "robust-ptas", "greedy-ratio", "distributed"],
    )
    def test_policy_runs_with_any_solver(self, solver_factory, rng):
        graph = connected_random_network(6, 2, rng=rng)
        channels = ChannelState.random_paper_rates(6, 2, rng=rng)
        extended = ExtendedConflictGraph(graph)
        solver = solver_factory(extended)
        policy = CombinatorialUCBPolicy(extended, solver=solver)
        simulator = Simulator(extended, channels, rng=rng)
        result = simulator.run(policy, num_rounds=20)
        assert result.num_rounds == 20
        assert (result.expected_rewards() >= 0).all()


class TestCommunicationAccountingAcrossRounds:
    def test_weight_broadcast_cost_drops_after_first_round(self, rng):
        graph = connected_random_network(8, 3, rng=rng)
        channels = ChannelState.random_paper_rates(8, 3, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=9)
        solver = system.distributed_solver(r=1)
        policy = system.paper_policy(solver=solver)
        system.simulate(policy, num_rounds=3)
        # After the first round only the previous strategy's vertices
        # re-broadcast their weight, so the WB cost is far below K.
        wb = solver.last_result.costs.communication.mini_timeslots_per_phase["WB"]
        assert wb < system.extended_graph.num_vertices

    def test_oracle_beats_or_matches_learning_policies(self, rng):
        graph = connected_random_network(6, 2, rng=rng)
        channels = ChannelState.random_paper_rates(6, 2, rng=rng)
        system = ChannelAccessSystem(graph, channels, seed=17)
        optimum = system.optimal_value()
        learner = system.simulate(
            system.paper_policy(solver=ExactMWISSolver()), num_rounds=60
        )
        oracle_policy = system.oracle_policy()
        oracle = system.simulate(oracle_policy, num_rounds=60)
        assert (
            oracle.expected_rewards().mean()
            >= learner.expected_rewards().mean() - 1e-9
        )
        assert oracle.expected_rewards().mean() == pytest.approx(optimum)
