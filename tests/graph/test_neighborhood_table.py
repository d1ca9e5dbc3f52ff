"""The one neighbourhood table: its balls, its dynamic updates and its sharing.

* Static: every ball equals :func:`r_hop_neighborhood` at every protocol
  radius (and at any radius :meth:`NeighborhoodTable.balls` serves lazily).
* Dynamic: after random event batches the dynamics engine's table still
  equals a fresh computation, and the recomputed count it reports equals
  the maximum over radii of the per-radius counts (each radius's touched
  vertices' old and new balls).
* Sharing: a run builds one extended graph ``H`` per topology and one
  table per (topology, r), every policy, period and replication reads
  those, and the run leaves the table equal to a fresh build.
"""

import gc
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.neighborhoods as neighborhoods_module
from repro.dynamics import DynamicStrategyEngine
from repro.dynamics.events import LinkFlap, MobilityStep, NodeArrival, NodeDeparture
from repro.dynamics.graph import DynamicExtendedGraph, DynamicTopology, GraphDelta
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import (
    NeighborhoodTable,
    protocol_radii,
    r_hop_neighborhood,
)
from repro.graph.topology import random_network
from repro.spec import get_scenario
from repro.spec.runner import run_scenario


@st.composite
def adjacencies(draw):
    n = draw(st.integers(1, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    adjacency = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


@settings(max_examples=60, deadline=None)
@given(adjacency=adjacencies(), r=st.integers(1, 3))
def test_table_equals_r_hop_neighborhood_at_every_radius(adjacency, r):
    table = NeighborhoodTable(adjacency, protocol_radii(r))
    assert table.radii == protocol_radii(r)
    for hops in (*protocol_radii(r), 0, 4 * r):
        assert table.balls(hops) == [
            r_hop_neighborhood(adjacency, vertex, hops)
            for vertex in range(len(adjacency))
        ]


def random_event(topology, rng, round_index):
    """One applicable event for the current topology state."""
    active = topology.active_nodes()
    departed = [n for n in range(topology.num_nodes) if not topology.is_active(n)]
    kinds = ["flap", "move"] + (["depart"] if len(active) > 1 else [])
    kinds += ["arrive"] if departed else []
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "depart":
        return NodeDeparture(round_index=round_index, node=int(rng.choice(active)))
    if kind == "arrive":
        return NodeArrival(round_index=round_index, node=int(rng.choice(departed)))
    if kind == "move":
        x, y = rng.uniform(0.0, 6.0, size=2)
        node = int(rng.integers(topology.num_nodes))
        return MobilityStep(round_index=round_index, node=node, x=float(x), y=float(y))
    u, v = (int(x) for x in rng.choice(topology.num_nodes, size=2, replace=False))
    return LinkFlap(round_index=round_index, u=u, v=v, up=bool(rng.random() < 0.4))


def max_recomputed_over_radii(old, new, touched, radii):
    """The count one cache per radius reported: its largest recompute set."""
    counts = [0]
    for hops in radii:
        affected = set()
        for vertex in touched:
            affected |= r_hop_neighborhood(old, vertex, hops)
            affected |= r_hop_neighborhood(new, vertex, hops)
        counts.append(len(affected))
    return max(counts)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(3, 10),
    num_channels=st.integers(1, 3),
    r=st.integers(1, 2),
    batches=st.lists(st.integers(1, 3), min_size=1, max_size=6),
)
def test_table_stays_exact_under_dynamic_event_batches(
    seed, num_nodes, num_channels, r, batches
):
    rng = np.random.default_rng(seed)
    base = random_network(num_nodes, num_channels, average_degree=3.0, rng=rng)
    engine = DynamicStrategyEngine(base, r=r)
    # A shadow of the engine's graphs yields each batch's touched vertices.
    shadow = DynamicExtendedGraph(DynamicTopology(base))
    for round_index, size in enumerate(batches, start=1):
        old = [set(neighbors) for neighbors in shadow.adjacency]
        events, merged = [], GraphDelta()
        for _ in range(size):
            event = random_event(shadow.topology, rng, round_index)
            merged = merged.merge(shadow.topology.apply(event))
            events.append(event)
        touched = shadow.apply_delta(merged).touched_vertices
        report = engine.apply_events(events)
        assert engine.extended.adjacency == shadow.adjacency
        assert report.recomputed_neighborhoods == max_recomputed_over_radii(
            old, shadow.adjacency, touched, protocol_radii(r)
        )
        for hops in protocol_radii(r):
            assert engine.neighborhoods.balls(hops) == [
                r_hop_neighborhood(shadow.adjacency, vertex, hops)
                for vertex in range(len(shadow.adjacency))
            ]
    shared = engine.protocol.transport_neighborhoods()
    assert all(shared[hops] is engine.neighborhoods.balls(hops) for hops in shared)


@pytest.fixture
def built_tables(monkeypatch):
    """``(table, copy of its adjacency)`` for every :class:`NeighborhoodTable`
    constructed while the test runs."""
    tables = []
    init = NeighborhoodTable.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append((self, [set(neighbors) for neighbors in self.adjacency]))

    monkeypatch.setattr(neighborhoods_module.NeighborhoodTable, "__init__", recording_init)
    return tables


@pytest.mark.parametrize(
    "preset",
    [
        "fig8-quick",  # 2 periods x 2 policies x R = 1 decide on one graph
        "fig7-quick",  # 2 policies x R = 1
        "faults-quick",  # the faulty run, its transport and the baseline
    ],
)
def test_a_run_builds_one_table_and_leaves_it_as_built(built_tables, preset):
    spec = get_scenario(preset)
    run_scenario(spec)
    assert len(built_tables) == 1
    ((table, adjacency),) = built_tables
    assert table.radii == protocol_radii(spec.policies[0].r)
    assert table.adjacency == adjacency
    fresh = NeighborhoodTable(adjacency, table.radii)
    for hops in table.radii:
        assert table.balls(hops) == fresh.balls(hops)


def test_graph_hands_every_caller_one_table():
    """Racing first calls (more threads than cores, frequent switches) all
    read the one table and the one list of balls per radius."""
    graph = random_network(12, 3, average_degree=4.0, rng=np.random.default_rng(3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            balls = list(
                pool.map(
                    lambda _: graph.neighborhood_table(2).balls(8), range(8), timeout=60
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert all(found is balls[0] for found in balls)
    table = graph.neighborhood_table(2)
    assert table.balls(8) is balls[0]
    assert graph.neighborhood_table(1) is not table
    assert table.adjacency == ExtendedConflictGraph(graph).adjacency_sets()


@pytest.fixture
def built_extended_graphs(monkeypatch):
    """Every :class:`ExtendedConflictGraph` constructed while the test runs."""
    graphs = []
    init = ExtendedConflictGraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graphs.append(self)

    monkeypatch.setattr(ExtendedConflictGraph, "__init__", recording_init)
    return graphs


def test_fig8_quick_builds_one_extended_graph(built_extended_graphs):
    """2 periods x 2 policies, each with its own system, and the table all
    read the topology's one ``H``."""
    run_scenario(get_scenario("fig8-quick"))
    assert len(built_extended_graphs) == 1


def test_graph_hands_every_caller_one_extended_graph():
    from repro.api import ChannelAccessSystem
    from repro.channels.state import ChannelState

    graph = random_network(12, 3, average_degree=4.0, rng=np.random.default_rng(3))
    extended = graph.extended_graph()
    assert graph.extended_graph() is extended
    channels = ChannelState.random_paper_rates(12, 3, rng=np.random.default_rng(0))
    assert ChannelAccessSystem(graph, channels).extended_graph is extended
    assert graph.neighborhood_table(2).adjacency == extended.adjacency_sets()
    with pytest.raises(ValueError, match="read-only"):
        extended.csr_adjacency()[1][0] = 1


def test_pickled_graph_rebuilds_its_extended_graph(built_extended_graphs):
    graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)], 2)
    extended = graph.extended_graph()
    copy = pickle.loads(pickle.dumps(graph))
    assert len(built_extended_graphs) == 1  # H is not shipped in the pickle
    rebuilt = copy.extended_graph()
    assert rebuilt is not extended
    assert copy.extended_graph() is rebuilt
    assert np.array_equal(rebuilt.edge_array(), extended.edge_array())


def test_a_dropped_graph_frees_its_extended_graph_and_tables_at_once():
    """``H`` holds no reference back to its graph, so no reference cycle
    keeps a large table alive until the cycle collector runs."""
    gc.disable()
    try:
        graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)], 2)
        table = graph.neighborhood_table(1)
        refs = [weakref.ref(graph), weakref.ref(graph.extended_graph())]
        del graph
        assert [ref() for ref in refs] == [None, None]
        assert table.balls(1)  # the table itself lives on while held
    finally:
        gc.enable()


def test_pickled_graph_rebuilds_its_table():
    graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)], 2)
    table = graph.neighborhood_table(1)
    copy = pickle.loads(pickle.dumps(graph))
    rebuilt = copy.neighborhood_table(1)
    assert rebuilt is not table
    for hops in table.radii:
        assert rebuilt.balls(hops) == table.balls(hops)
