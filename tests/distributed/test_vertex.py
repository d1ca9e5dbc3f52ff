"""Tests for the per-vertex state of repro.distributed.runtime.VertexProtocol."""

import pytest

from repro.distributed.runtime import VertexProtocol, VertexStatus


def make_vertex(vertex, hood_2r1, hood_r):
    """A vertex machine with no transport: only its local knowledge is used."""
    return VertexProtocol(
        vertex,
        transport=None,
        r=1,
        adjacency=[],
        hood_r=hood_r,
        hood_r1=hood_2r1,
        hood_2r1=hood_2r1,
    )


@pytest.fixture
def agent():
    """Vertex 2 with a small knowledge horizon."""
    return make_vertex(2, hood_2r1={0, 1, 2, 3, 4}, hood_r={1, 2, 3})


class TestVertexStatus:
    def test_decided_statuses(self):
        assert VertexStatus.WINNER.is_decided
        assert VertexStatus.LOSER.is_decided
        assert not VertexStatus.CANDIDATE.is_decided
        assert not VertexStatus.LOCAL_LEADER.is_decided


class TestVertexKnowledge:
    def test_initial_state(self, agent):
        assert agent.status == VertexStatus.CANDIDATE
        assert agent.undecided == {0, 1, 3, 4}
        assert agent.decided == set()
        assert agent.heard == {}
        assert all(agent.known_weight(u) == 0.0 for u in range(5))

    def test_neighbourhoods_must_contain_self(self):
        with pytest.raises(ValueError):
            make_vertex(5, hood_2r1={0, 1}, hood_r={5})

    def test_observe_weight_inside_horizon(self, agent):
        agent.observe_weight(1, 3.5)
        assert agent.known_weight(1) == 3.5

    def test_observe_weight_outside_horizon_is_ignored(self, agent):
        agent.observe_weight(99, 3.5)
        assert agent.known_weight(99) is None


class TestVertexMarking:
    def test_mark_updates_own_status_and_knowledge(self, agent):
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER
        assert 2 not in agent.undecided

    def test_conflicting_remark_rejected(self, agent):
        agent.mark(VertexStatus.LOSER)
        with pytest.raises(ValueError):
            agent.mark(VertexStatus.WINNER)

    def test_same_remark_allowed(self, agent):
        agent.mark(VertexStatus.WINNER)
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER

    def test_leader_then_winner_transition(self, agent):
        agent.mark(VertexStatus.LOCAL_LEADER)
        agent.mark(VertexStatus.WINNER)
        assert agent.status == VertexStatus.WINNER


class TestLocalMaximum:
    def test_unique_max_weight_is_local_maximum(self, agent):
        weights = {0: 1.0, 1: 2.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.prime(weights)
        assert agent.is_local_maximum()

    def test_not_local_maximum_when_neighbor_is_heavier(self, agent):
        weights = {0: 1.0, 1: 9.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.prime(weights)
        assert not agent.is_local_maximum()

    def test_ties_broken_by_vertex_id(self):
        low_id = make_vertex(0, {0, 1}, {0, 1})
        high_id = make_vertex(1, {0, 1}, {0, 1})
        for agent in (low_id, high_id):
            agent.observe_weight(0, 2.0)
            agent.observe_weight(1, 2.0)
        assert low_id.is_local_maximum()
        assert not high_id.is_local_maximum()

    def test_decided_neighbors_are_ignored(self, agent):
        weights = {0: 1.0, 1: 9.0, 2: 5.0, 3: 3.0, 4: 0.5}
        agent.prime(weights)
        assert not agent.is_local_maximum()
        agent.decided.add(1)
        assert agent.is_local_maximum()

    def test_non_candidate_is_never_local_maximum(self, agent):
        agent.prime({v: 1.0 for v in range(5)})
        agent.mark(VertexStatus.LOSER)
        assert not agent.is_local_maximum()


class TestCandidateSets:
    def test_candidate_set_r_includes_self(self, agent):
        assert agent.candidate_set_r() == {1, 2, 3}

    def test_candidate_set_r_excludes_decided(self, agent):
        agent.decided |= {1, 3}
        assert agent.candidate_set_r() == {2}

    def test_undecided_excludes_self_and_decided(self, agent):
        agent.decided.update({2, 4, 99})
        assert agent.undecided == {0, 1, 3}
