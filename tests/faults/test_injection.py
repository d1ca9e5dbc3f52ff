"""Fault injection semantics at the engine level (repro.faults.runtime)."""

import pytest

from repro.distributed.transport import SimulatedTransport
from repro.faults import (
    ByzantineFault,
    CrashFault,
    FaultInjectionEngine,
    FaultPlan,
    QuorumConfig,
)
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii


def hoods_for(adjacency, r):
    return NeighborhoodTable(adjacency, protocol_radii(r))


def run_faulty(adjacency, weights, plan, quorum=None, r=1):
    hoods = hoods_for(adjacency, r)
    engine = FaultInjectionEngine(adjacency, r, hoods, plan=plan, quorum=quorum)
    transport = SimulatedTransport(adjacency, neighborhoods=hoods)
    return engine.run(transport, weights)


#: Star: vertex 0 is the hub, 1..4 are mutually non-adjacent leaves.
STAR = [{1, 2, 3, 4}, {0}, {0}, {0}, {0}]
STAR_WEIGHTS = [100.0, 10.0, 9.0, 8.0, 7.0]

#: Path 0 - 1 - 2 with a light middle vertex.
PATH = [{1}, {0, 2}, {1}]
PATH_WEIGHTS = [10.0, 1.0, 9.0]


class TestCrashStop:
    def test_wb_crashed_vertex_never_wins(self):
        plan = FaultPlan([CrashFault(vertex=0, mini_round=0, phase="WB")])
        run, report = run_faulty(STAR, STAR_WEIGHTS, plan)
        assert 0 not in run.independent_set.vertices
        assert report.num_crashed == 1

    def test_mid_protocol_leader_crash_stalls_without_quorum(self):
        # The hub wins every election on announced weight but dies before
        # declaring leadership: the unmitigated leaves block forever.
        plan = FaultPlan([CrashFault(vertex=0, mini_round=1, phase="LD")])
        run, report = run_faulty(STAR, STAR_WEIGHTS, plan)
        assert not run.converged
        assert report.undecided_honest == 4
        assert report.final_winners == 0

    def test_quorum_suspicion_unblocks_the_leaves(self):
        plan = FaultPlan([CrashFault(vertex=0, mini_round=1, phase="LD")])
        run, report = run_faulty(
            STAR, STAR_WEIGHTS, plan, quorum=QuorumConfig(threshold=2)
        )
        assert report.quorum_enabled
        assert report.patience >= 1
        assert report.suspected_crashed >= 1
        assert report.undecided_honest == 0
        # All four mutually non-adjacent leaves win once the dead hub is
        # dropped from their elections.
        assert set(run.independent_set.vertices) == {1, 2, 3, 4}
        assert report.corrupted_winners == 0

    def test_crash_only_report_has_no_byzantine_metrics(self):
        plan = FaultPlan([CrashFault(vertex=0, mini_round=0, phase="WB")])
        _, report = run_faulty(STAR, STAR_WEIGHTS, plan)
        assert report.num_byzantine == 0
        assert report.byzantine_winners == 0


class TestByzantine:
    def test_weight_inflation_steals_the_win_without_quorum(self):
        plan = FaultPlan([ByzantineFault(vertex=1, behavior="weight-inflation")])
        run, report = run_faulty(PATH, PATH_WEIGHTS, plan)
        assert 1 in run.independent_set.vertices
        assert report.byzantine_winners == 1
        assert report.corrupted_winner_rate > 0.0

    def test_quorum_convicts_the_liar_on_wb_evidence(self):
        plan = FaultPlan([ByzantineFault(vertex=1, behavior="weight-inflation")])
        run, report = run_faulty(
            PATH, PATH_WEIGHTS, plan, quorum=QuorumConfig(threshold=2)
        )
        assert report.excluded_senders >= 1
        assert report.accusations_sent >= 1
        assert 1 not in run.independent_set.vertices
        # The honest endpoints are not adjacent and both win.
        assert set(run.independent_set.vertices) == {0, 2}
        assert report.corrupted_winner_rate == 0.0

    def test_conflicting_decisions_violate_independence(self):
        plan = FaultPlan(
            [ByzantineFault(vertex=1, behavior="conflicting-decisions")]
        )
        run, report = run_faulty(PATH, PATH_WEIGHTS, plan)
        assert not run.independent
        assert report.conflicting_winners >= 2
        assert report.corrupted_winner_rate > 0.0

    def test_usurpation_marks_the_whole_ball_losers(self):
        plan = FaultPlan([ByzantineFault(vertex=0, behavior="winner-usurpation")])
        run, report = run_faulty(STAR, STAR_WEIGHTS, plan)
        assert set(run.independent_set.vertices) == {0}
        assert report.byzantine_winners == 1

    def test_quorum_strictly_reduces_corruption_at_the_same_plan(self):
        plan = FaultPlan(
            [
                ByzantineFault(vertex=1, behavior="weight-inflation"),
                CrashFault(vertex=4, mini_round=0, phase="WB"),
            ]
        )
        _, plain = run_faulty(STAR, STAR_WEIGHTS, plan)
        _, hardened = run_faulty(
            STAR, STAR_WEIGHTS, plan, quorum=QuorumConfig(threshold=2)
        )
        assert hardened.corrupted_winner_rate < plain.corrupted_winner_rate


class TestEngineContracts:
    def test_plan_must_fit_the_graph(self):
        plan = FaultPlan([CrashFault(vertex=9, mini_round=0, phase="WB")])
        hoods = hoods_for(PATH, 1)
        with pytest.raises(ValueError, match="vertex 9"):
            FaultInjectionEngine(PATH, 1, hoods, plan=plan)

    def test_empty_plan_matches_the_honest_protocol(self):
        from repro.distributed.ptas import DistributedRobustPTAS

        run, report = run_faulty(STAR, STAR_WEIGHTS, FaultPlan([]))
        honest = DistributedRobustPTAS(STAR, r=1).run(STAR_WEIGHTS)
        assert run.independent_set.vertices == honest.independent_set.vertices
        assert run.num_mini_rounds == honest.num_mini_rounds
        assert run.mini_rounds == honest.mini_rounds
        assert run.costs == honest.costs
        assert (run.converged, run.independent) == (
            honest.converged, honest.independent
        )
        assert report.fault_fraction == 0.0
        assert report.corrupted_winners == 0

    def test_deterministic_across_repeats(self):
        plan = FaultPlan(
            [
                ByzantineFault(vertex=1, behavior="weight-inflation"),
                CrashFault(vertex=3, mini_round=1, phase="LB"),
            ]
        )
        first, r1 = run_faulty(STAR, STAR_WEIGHTS, plan, QuorumConfig())
        second, r2 = run_faulty(STAR, STAR_WEIGHTS, plan, QuorumConfig())
        assert first.independent_set.vertices == second.independent_set.vertices
        assert r1 == r2
