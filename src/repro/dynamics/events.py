"""Topology events and deterministic event-schedule generators.

The paper's distributed PTAS is pitched as robust to network dynamics, but a
frozen topology can never exercise that claim.  This module defines the
vocabulary of topology changes a running scenario can experience:

* :class:`NodeArrival` / :class:`NodeDeparture` — churn: a user joins the
  deployment (possibly at a new position) or powers off;
* :class:`LinkFlap` — a conflict link is forced down (e.g. an obstruction
  appears between two users) or restored to the topology rule;
* :class:`MobilityStep` — a user moves to a new position on a
  random-waypoint walk, changing its unit-disk conflict edges.

An :class:`EventSchedule` is an immutable, JSON-serializable list of events
keyed by the learning round *before* which they apply.  Schedules are
produced by seeded generators (Poisson churn, periodic link flapping,
random-waypoint mobility, scripted traces) so the same spec always yields
the same event sequence — which is what lets the sweep layer content-hash
dynamic scenarios and dedup them in the results store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

import numpy as np

from repro._codec import check_fields, tagged_union
from repro.graph.conflict_graph import ConflictGraph

__all__ = [
    "TopologyEvent",
    "NodeArrival",
    "NodeDeparture",
    "LinkFlap",
    "MobilityStep",
    "EventSchedule",
    "poisson_churn_schedule",
    "periodic_flap_schedule",
    "random_waypoint_schedule",
]


@dataclass(frozen=True)
class TopologyEvent:
    """Base class: something that changes the topology before a round.

    ``round_index`` is 1-based and names the learning round the change is
    visible in: all events of round ``t`` are applied before the round-``t``
    strategy decision.
    """

    round_index: int

    #: Serialization tag; set by each concrete subclass.
    type_name = "event"
    #: Fields holding node ids; set by each concrete subclass.
    node_fields = ()

    def validate(self, path: str = "event") -> None:
        """Raise ``ValueError`` (with ``path``) when the event is ill-formed.

        Every field must hold its declared type, as a decoded event's does
        (coordinates are finite numbers); node ids are non-negative.
        """
        check_fields(self, path)
        if self.round_index < 1:
            raise ValueError(f"{path}.round_index: must be >= 1, got {self.round_index}")
        for name in self.node_fields:
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{path}.{name}: node ids are non-negative, got {getattr(self, name)}"
                )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation; a ``trace`` dynamics spec decodes it back."""
        data: Dict[str, object] = {"type": self.type_name}
        for name, value in sorted(self.__dict__.items()):
            data[name] = value
        return data


@dataclass(frozen=True)
class NodeDeparture(TopologyEvent):
    """Node ``node`` leaves the network; its conflict edges disappear."""

    node: int = 0
    type_name = "node-departure"
    node_fields = ("node",)


@dataclass(frozen=True)
class NodeArrival(TopologyEvent):
    """Node ``node`` (re)joins the network.

    On geometric topologies ``x``/``y`` give the arrival position (``None``
    keeps the last known one); combinatorial topologies restore the node's
    base conflict edges and ignore positions.
    """

    node: int = 0
    x: Optional[float] = None
    y: Optional[float] = None
    type_name = "node-arrival"
    node_fields = ("node",)

    def validate(self, path: str = "event") -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError(f"{path}: give both x and y or neither, got x={self.x}, y={self.y}")
        super().validate(path)


@dataclass(frozen=True)
class LinkFlap(TopologyEvent):
    """The conflict link ``(u, v)`` is forced down (``up=False``) or restored.

    Restoring removes the override: the link is present again exactly when
    the topology rule (unit-disk distance, or the base edge set) says so.
    """

    u: int = 0
    v: int = 1
    up: bool = False
    type_name = "link-flap"
    node_fields = ("u", "v")

    def validate(self, path: str = "event") -> None:
        super().validate(path)
        if self.u == self.v:
            raise ValueError(f"{path}: a link needs two distinct endpoints, got ({self.u}, {self.v})")


@dataclass(frozen=True)
class MobilityStep(TopologyEvent):
    """Node ``node`` moves to ``(x, y)``; its unit-disk edges are recomputed."""

    node: int = 0
    x: float = 0.0
    y: float = 0.0
    type_name = "mobility-step"
    node_fields = ("node",)


EVENT_TYPES: Dict[str, Type[TopologyEvent]] = {
    cls.type_name: cls for cls in (NodeArrival, NodeDeparture, LinkFlap, MobilityStep)
}


# Makes ``TopologyEvent`` a field type the codec decodes by its ``type`` key
# (``DynamicsSpec.trace``).
tagged_union(TopologyEvent, EVENT_TYPES, "event")


class EventSchedule:
    """An immutable, validated sequence of topology events.

    Events are stored sorted by ``round_index`` (stable, so same-round
    events keep their given order — departures before arrivals matter when a
    trace recycles a node id within one round).
    """

    def __init__(self, events: Iterable[TopologyEvent]) -> None:
        events = list(events)
        for index, event in enumerate(events):
            if not isinstance(event, TopologyEvent):
                raise ValueError(
                    f"events[{index}]: expected a TopologyEvent, got {type(event).__name__}"
                )
            event.validate(f"events[{index}]")
        ordered = sorted(events, key=lambda event: event.round_index)
        self._events: Tuple[TopologyEvent, ...] = tuple(ordered)
        self._by_round: Dict[int, List[TopologyEvent]] = {}
        for event in self._events:
            self._by_round.setdefault(event.round_index, []).append(event)

    @property
    def events(self) -> Tuple[TopologyEvent, ...]:
        """All events, sorted by round."""
        return self._events

    @property
    def num_events(self) -> int:
        """Total number of events."""
        return len(self._events)

    @property
    def event_rounds(self) -> List[int]:
        """The rounds that have at least one event, sorted."""
        return sorted(self._by_round)

    @property
    def max_round(self) -> int:
        """Largest round index carrying an event (0 for an empty schedule)."""
        return self._events[-1].round_index if self._events else 0

    def events_for_round(self, round_index: int) -> List[TopologyEvent]:
        """The events applied just before round ``round_index``."""
        return list(self._by_round.get(round_index, ()))

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready event list, one :meth:`TopologyEvent.to_dict` per event."""
        return [event.to_dict() for event in self._events]

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form (sorted keys, compact)."""
        canonical = json.dumps(
            self.to_dicts(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSchedule):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"EventSchedule(num_events={self.num_events}, max_round={self.max_round})"


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _deployment_side(graph: ConflictGraph) -> float:
    """Side length of the (square) area arrivals and waypoints are drawn in.

    Uses the bounding square of the initial deployment so generated
    positions stay in the same density regime as the seed topology.
    """
    positions = graph.positions
    if not positions:
        return 1.0
    extent = max(max(p.x for p in positions), max(p.y for p in positions))
    return max(float(extent), 1.0)


def poisson_churn_schedule(
    graph: ConflictGraph,
    num_rounds: int,
    rate: float,
    rng: np.random.Generator,
    arrival_bias: float = 0.5,
    min_active: int = 1,
) -> EventSchedule:
    """Poisson churn: nodes leave and rejoin at ``rate`` events per round.

    Every round draws ``Poisson(rate)`` churn events.  Each event is an
    arrival of a random departed node with probability ``arrival_bias``
    (when one exists) or a departure of a random active node (never
    dropping below ``min_active`` active nodes).  Rejoining nodes land at a
    fresh uniform position on geometric topologies and restore their base
    conflict edges on combinatorial ones.
    """
    if num_rounds <= 0:
        raise ValueError(f"num_rounds must be positive, got {num_rounds}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not (0.0 <= arrival_bias <= 1.0):
        raise ValueError(f"arrival_bias must be in [0, 1], got {arrival_bias}")
    if min_active < 1:
        raise ValueError(f"min_active must be >= 1, got {min_active}")
    side = _deployment_side(graph)
    geometric = graph.positions is not None
    active = set(range(graph.num_nodes))
    departed: List[int] = []
    events: List[TopologyEvent] = []
    for round_index in range(1, num_rounds + 1):
        for _ in range(int(rng.poisson(rate))):
            can_depart = len(active) > min_active
            can_arrive = bool(departed)
            if not can_depart and not can_arrive:
                continue
            if can_arrive and (not can_depart or rng.random() < arrival_bias):
                node = departed.pop(int(rng.integers(0, len(departed))))
                if geometric:
                    x, y = (float(v) for v in rng.uniform(0.0, side, size=2))
                    events.append(NodeArrival(round_index=round_index, node=node, x=x, y=y))
                else:
                    events.append(NodeArrival(round_index=round_index, node=node))
                active.add(node)
            else:
                choices = sorted(active)
                node = choices[int(rng.integers(0, len(choices)))]
                events.append(NodeDeparture(round_index=round_index, node=node))
                active.discard(node)
                departed.append(node)
    return EventSchedule(events)


def periodic_flap_schedule(
    graph: ConflictGraph,
    num_rounds: int,
    period: int,
    flap_fraction: float,
    rng: np.random.Generator,
) -> EventSchedule:
    """Periodic link flapping: a fixed edge subset toggles every ``period`` rounds.

    ``max(1, round(flap_fraction * |E|))`` edges are chosen once (seeded);
    they go down at rounds ``period, 3*period, ...`` and come back up at
    rounds ``2*period, 4*period, ...``.
    """
    if num_rounds <= 0:
        raise ValueError(f"num_rounds must be positive, got {num_rounds}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not (0.0 < flap_fraction <= 1.0):
        raise ValueError(f"flap_fraction must be in (0, 1], got {flap_fraction}")
    edges = sorted(graph.edges())
    if not edges:
        return EventSchedule(())
    count = max(1, int(round(flap_fraction * len(edges))))
    chosen_idx = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
    chosen = [edges[int(i)] for i in sorted(chosen_idx)]
    events: List[TopologyEvent] = []
    up = False  # first toggle takes the links down
    for round_index in range(period, num_rounds + 1, period):
        for u, v in chosen:
            events.append(LinkFlap(round_index=round_index, u=u, v=v, up=up))
        up = not up
    return EventSchedule(events)


def random_waypoint_schedule(
    graph: ConflictGraph,
    num_rounds: int,
    speed: float,
    step_every: int,
    rng: np.random.Generator,
) -> EventSchedule:
    """Random-waypoint mobility on the deployment square.

    Every node walks toward a uniformly drawn waypoint at ``speed`` distance
    units per round; positions are sampled into :class:`MobilityStep` events
    every ``step_every`` rounds.  When a node reaches its waypoint it draws
    the next one.  Requires a geometric topology (positions).
    """
    if num_rounds <= 0:
        raise ValueError(f"num_rounds must be positive, got {num_rounds}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if step_every < 1:
        raise ValueError(f"step_every must be >= 1, got {step_every}")
    positions = graph.positions
    if positions is None:
        raise ValueError(
            "random-waypoint mobility needs node positions; the topology "
            "must be geometric (random / connected-random / linear / grid)"
        )
    side = _deployment_side(graph)
    coords = np.array([[p.x, p.y] for p in positions], dtype=float)
    waypoints = rng.uniform(0.0, side, size=coords.shape)
    events: List[TopologyEvent] = []
    for round_index in range(step_every, num_rounds + 1, step_every):
        budget = speed * step_every
        for node in range(coords.shape[0]):
            remaining = budget
            while remaining > 0.0:
                delta = waypoints[node] - coords[node]
                distance = float(np.hypot(delta[0], delta[1]))
                if distance <= remaining:
                    coords[node] = waypoints[node]
                    remaining -= distance
                    waypoints[node] = rng.uniform(0.0, side, size=2)
                    if distance == 0.0:
                        break
                else:
                    coords[node] += delta * (remaining / distance)
                    remaining = 0.0
            events.append(
                MobilityStep(
                    round_index=round_index,
                    node=node,
                    x=float(coords[node, 0]),
                    y=float(coords[node, 1]),
                )
            )
    return EventSchedule(events)
