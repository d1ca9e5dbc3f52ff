"""A vertex machine's incremental knowledge against a slow oracle.

``ReferenceAgent`` keeps a full status map and a full weight map over the
(2r+1)-hop horizon and re-scans them on every query; ``VertexProtocol`` keeps
the ``decided`` set, the last election blocker it found and the ``heard``
overlay over a shared ``primed`` vector.  Random horizons, tied weights, ``exclude`` sets and random
sequences of knowledge updates (lies, re-announced truths and announcements
from outside the horizon among them) are applied to both; after every step
the election, ``A_r(v)``, decidedness and every known weight must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.messages import StatusDetermination, WeightBroadcast
from repro.distributed.runtime import VertexProtocol, VertexStatus

#: Vertex ids are drawn from this range; the horizon is a subset of it, so
#: the rest exercises the outside-horizon paths.
UNIVERSE = 12
#: Few weight levels, so election ties are common.
LEVELS = (0.0, 1.0, 2.0, 3.0)


class ReferenceAgent:
    """Status knowledge kept as a full map, re-scanned on every query."""

    def __init__(self, vertex, horizon, hood_r):
        self.vertex = vertex
        self.horizon = set(horizon)
        self.hood_r = set(hood_r)
        self.status = VertexStatus.CANDIDATE
        self.weights = {}
        self.statuses = {u: VertexStatus.CANDIDATE for u in self.horizon}

    def prime(self, weights):
        self.weights = {u: float(weights[u]) for u in self.horizon}

    def observe_weight(self, vertex, weight):
        if vertex in self.horizon:
            self.weights[vertex] = float(weight)

    def known_weight(self, vertex):
        return self.weights.get(vertex, 0.0) if vertex in self.horizon else None

    def observe_status(self, vertex, status):
        if vertex not in self.horizon or self.statuses[vertex].is_decided:
            return
        self.statuses[vertex] = status

    def mark(self, status):
        if self.status.is_decided and status != self.status:
            raise ValueError("already decided")
        self.status = status
        self.statuses[self.vertex] = status

    def receive_decisions(self, decisions):
        for vertex, is_winner in decisions.items():
            status = VertexStatus.WINNER if is_winner else VertexStatus.LOSER
            if vertex == self.vertex and not self.status.is_decided:
                self.mark(status)
            else:
                self.observe_status(vertex, status)

    def is_decided(self, vertex):
        return self.statuses[vertex].is_decided

    def candidate_neighbors(self, exclude):
        found = {
            u for u in self.horizon if u != self.vertex and not self.is_decided(u)
        }
        return found - exclude if exclude else found

    def candidate_set_r(self, exclude):
        found = {u for u in self.hood_r if not self.is_decided(u)}
        if exclude:
            found -= exclude
        found.add(self.vertex)
        return found

    def is_local_maximum(self, exclude):
        if self.status != VertexStatus.CANDIDATE:
            return False
        own = (self.weights.get(self.vertex, 0.0), -self.vertex)
        for other in self.candidate_neighbors(exclude):
            if (self.weights.get(other, 0.0), -other) > own:
                return False
        return True


statuses = st.sampled_from(list(VertexStatus))
vertex_ids = st.integers(min_value=0, max_value=UNIVERSE - 1)


@st.composite
def scenarios(draw):
    """A horizon, its r-hop part, an ``exclude`` set, the primed weight
    vector (``None``: never primed) and an update sequence."""
    vertex = draw(vertex_ids)
    horizon = draw(st.sets(vertex_ids, max_size=UNIVERSE)) | {vertex}
    hood_r = draw(st.sets(st.sampled_from(sorted(horizon)))) | {vertex}
    exclude = draw(st.one_of(st.none(), st.sets(vertex_ids, max_size=4)))
    primed = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(LEVELS), min_size=UNIVERSE, max_size=UNIVERSE),
        )
    )
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("weight"), vertex_ids, st.sampled_from(LEVELS)),
                st.tuples(st.just("truth"), vertex_ids),
                st.tuples(st.just("mark"), statuses),
                st.tuples(
                    st.just("receive"),
                    st.dictionaries(vertex_ids, st.booleans(), max_size=5),
                    st.booleans(),
                ),
            ),
            max_size=30,
        )
    )
    return vertex, horizon, hood_r, exclude, primed, steps


def assert_agrees(protocol, reference, exclude):
    assert protocol.status == reference.status
    assert protocol.is_local_maximum(exclude=exclude) == reference.is_local_maximum(exclude)
    assert protocol.candidate_set_r(exclude=exclude) == reference.candidate_set_r(exclude)
    for u in reference.horizon - {reference.vertex}:
        assert (u not in protocol.undecided) == reference.is_decided(u)
    assert protocol.undecided <= reference.horizon - {reference.vertex}
    for u in range(UNIVERSE):
        assert protocol.known_weight(u) == reference.known_weight(u)
    assert protocol.own_weight() == reference.known_weight(reference.vertex)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_undecided_set_matches_full_status_rescan(scenario):
    vertex, horizon, hood_r, exclude, primed, steps = scenario
    protocol = VertexProtocol(
        vertex,
        transport=None,
        r=1,
        adjacency=[set() for _ in range(UNIVERSE)],
        hood_r=hood_r,
        hood_r1=horizon,
        hood_2r1=horizon,
    )
    reference = ReferenceAgent(vertex, horizon, hood_r)
    assert_agrees(protocol, reference, exclude)
    if primed is not None:
        protocol.prime(primed)
        reference.prime(primed)
        assert_agrees(protocol, reference, exclude)
    for step in steps:
        kind = step[0]
        if kind == "weight":
            protocol.observe_weight(step[1], step[2])
            reference.observe_weight(step[1], step[2])
        elif kind == "truth":
            # Re-announce the primed value (after a lie, it must undo it).
            truth = 0.0 if primed is None else primed[step[1]]
            protocol.receive(WeightBroadcast(sender=step[1], hop_limit=3, weight=truth))
            reference.observe_weight(step[1], truth)
        elif kind == "mark":
            try:
                reference.mark(step[1])
            except ValueError:
                with pytest.raises(ValueError):
                    protocol.mark(step[1])
            else:
                protocol.mark(step[1])
        else:
            decisions, self_wins = step[1], step[2]
            decisions = {**decisions, vertex: self_wins}
            protocol.receive(
                StatusDetermination(
                    sender=(vertex + 1) % UNIVERSE,
                    hop_limit=5,
                    decisions=decisions,
                    mini_round=1,
                )
            )
            reference.receive_decisions(decisions)
        assert_agrees(protocol, reference, exclude)
