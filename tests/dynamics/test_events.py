"""Tests for the topology-event model and the schedule generators."""

import numpy as np
import pytest

from repro.dynamics.events import (
    EventSchedule,
    LinkFlap,
    MobilityStep,
    NodeArrival,
    NodeDeparture,
    periodic_flap_schedule,
    poisson_churn_schedule,
    random_waypoint_schedule,
)
from repro.graph.topology import connected_random_network, ring_network
from repro.spec.scenario import DynamicsSpec


def decode_event(entry):
    """One event decoded the way a ``trace`` dynamics spec decodes it."""
    return DynamicsSpec(kind="trace", trace=(entry,)).trace[0]


class TestEventModel:
    def test_every_event_round_trips_through_dicts(self):
        events = [
            NodeDeparture(round_index=3, node=2),
            NodeArrival(round_index=5, node=2, x=1.5, y=2.5),
            NodeArrival(round_index=6, node=4),
            LinkFlap(round_index=7, u=0, v=3, up=False),
            MobilityStep(round_index=9, node=1, x=0.25, y=0.75),
        ]
        for event in events:
            rebuilt = decode_event(event.to_dict())
            assert rebuilt == event

    def test_round_index_must_be_positive(self):
        with pytest.raises(ValueError, match="round_index"):
            NodeDeparture(round_index=0, node=1).validate()

    def test_link_flap_rejects_self_loops(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkFlap(round_index=1, u=2, v=2).validate()

    def test_arrival_needs_both_coordinates_or_neither(self):
        with pytest.raises(ValueError, match="both x and y"):
            NodeArrival(round_index=1, node=0, x=1.0).validate()

    def test_unknown_event_type_is_named(self):
        with pytest.raises(ValueError, match="unknown event type"):
            decode_event({"type": "meteor-strike", "round_index": 1})

    def test_non_string_event_type_is_named(self):
        with pytest.raises(ValueError, match="unknown event type"):
            decode_event({"type": ["node-departure"], "round_index": 1})

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_coordinates_rejected(self, x):
        with pytest.raises(ValueError, match="x: expected a finite number"):
            MobilityStep(round_index=1, node=0, x=x, y=0.0).validate()
        with pytest.raises(ValueError, match="x: expected a finite number"):
            NodeArrival(round_index=1, node=0, x=x, y=0.0).validate()

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="unknown field"):
            decode_event(
                {"type": "node-departure", "round_index": 1, "node": 0, "speed": 3}
            )


class TestEventSchedule:
    def test_sorted_by_round_and_grouped(self):
        schedule = EventSchedule(
            [
                NodeDeparture(round_index=9, node=0),
                NodeDeparture(round_index=2, node=1),
                NodeArrival(round_index=2, node=3),
            ]
        )
        assert [event.round_index for event in schedule] == [2, 2, 9]
        assert schedule.event_rounds == [2, 9]
        assert len(schedule.events_for_round(2)) == 2
        assert schedule.events_for_round(5) == []
        assert schedule.max_round == 9

    def test_dict_round_trip_and_content_hash(self):
        schedule = EventSchedule(
            [
                NodeDeparture(round_index=2, node=1),
                LinkFlap(round_index=4, u=0, v=1, up=True),
            ]
        )
        rebuilt = EventSchedule(decode_event(entry) for entry in schedule.to_dicts())
        assert rebuilt == schedule
        assert rebuilt.content_hash() == schedule.content_hash()
        different = EventSchedule([NodeDeparture(round_index=2, node=2)])
        assert different.content_hash() != schedule.content_hash()


class TestGenerators:
    def test_poisson_churn_is_deterministic_per_seed(self):
        graph = connected_random_network(10, 3, rng=np.random.default_rng(3))
        one = poisson_churn_schedule(graph, 200, 0.1, np.random.default_rng(42))
        two = poisson_churn_schedule(graph, 200, 0.1, np.random.default_rng(42))
        other = poisson_churn_schedule(graph, 200, 0.1, np.random.default_rng(43))
        assert one == two
        assert one.content_hash() == two.content_hash()
        assert one != other

    def test_poisson_churn_respects_min_active(self):
        graph = connected_random_network(5, 2, rng=np.random.default_rng(0))
        schedule = poisson_churn_schedule(
            graph, 400, 0.5, np.random.default_rng(1), arrival_bias=0.1, min_active=3
        )
        active = set(range(5))
        for event in schedule:
            if isinstance(event, NodeDeparture):
                active.discard(event.node)
            else:
                active.add(event.node)
            assert len(active) >= 3

    def test_poisson_churn_on_combinatorial_topology_has_no_positions(self):
        graph = ring_network(6, 2)
        schedule = poisson_churn_schedule(graph, 300, 0.3, np.random.default_rng(5))
        arrivals = [e for e in schedule if isinstance(e, NodeArrival)]
        assert arrivals, "expected at least one arrival at this rate"
        assert all(event.x is None and event.y is None for event in arrivals)

    def test_periodic_flap_toggles_a_fixed_edge_subset(self):
        graph = connected_random_network(8, 2, rng=np.random.default_rng(2))
        schedule = periodic_flap_schedule(
            graph, 100, period=20, flap_fraction=0.25, rng=np.random.default_rng(9)
        )
        downs = {(e.u, e.v) for e in schedule if not e.up}
        ups = {(e.u, e.v) for e in schedule if e.up}
        assert downs == ups  # every flapped link comes back up
        edges = set(graph.edges())
        assert downs <= edges
        assert schedule.event_rounds == [20, 40, 60, 80, 100]
        first = schedule.events_for_round(20)
        assert all(not event.up for event in first)

    def test_random_waypoint_moves_every_node_each_step(self):
        graph = connected_random_network(6, 2, rng=np.random.default_rng(4))
        schedule = random_waypoint_schedule(
            graph, 50, speed=0.5, step_every=10, rng=np.random.default_rng(8)
        )
        assert schedule.event_rounds == [10, 20, 30, 40, 50]
        for round_index in schedule.event_rounds:
            moved = {event.node for event in schedule.events_for_round(round_index)}
            assert moved == set(range(6))

    def test_random_waypoint_requires_positions(self):
        with pytest.raises(ValueError, match="positions"):
            random_waypoint_schedule(
                ring_network(5, 2), 50, speed=0.5, step_every=10,
                rng=np.random.default_rng(0),
            )
