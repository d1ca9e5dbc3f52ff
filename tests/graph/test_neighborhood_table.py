"""The one neighbourhood table: its balls, its dynamic updates and its sharing.

* Static: every ball equals :func:`r_hop_neighborhood` at every protocol
  radius (and at any radius :meth:`NeighborhoodTable.balls` serves lazily),
  isolated vertices and column-blocked passes included; every ball holding
  a vertex holds the table's one int object for it.
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
from hypothesis import example, given, settings
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
    """Random graphs of 1 to 14 vertices, some of them isolated (empty
    adjacency rows first, inside and last: the rows ``reduceat`` must skip)."""
    n = draw(st.integers(1, 14))
    isolated = draw(st.sets(st.integers(0, n - 1)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    adjacency = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v and u not in isolated and v not in isolated:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def fresh_balls(adjacency, hops):
    return [r_hop_neighborhood(adjacency, vertex, hops) for vertex in range(len(adjacency))]


@settings(max_examples=60, deadline=None)
@given(adjacency=adjacencies(), r=st.integers(1, 3))
@example(adjacency=[set()], r=1)
@example(adjacency=[set(), set(), set()], r=1)
@example(adjacency=[set(), {2}, {1}, set()], r=1)
def test_table_equals_r_hop_neighborhood_at_every_radius(adjacency, r):
    """Every radius from 0 past the largest layered one, read from a table
    that layers the protocol radii and from one that serves every radius on
    demand (a transport's private table).  The explicit examples pin one
    vertex, no edge at all, and isolated vertices at both ends."""
    layered = NeighborhoodTable(adjacency, protocol_radii(r))
    on_demand = NeighborhoodTable(adjacency)
    assert layered.radii == protocol_radii(r)
    for hops in range(3 * r + 4):
        expected = fresh_balls(adjacency, hops)
        assert list(layered.balls(hops)) == expected
        assert list(on_demand.balls(hops)) == expected
    assert on_demand.radii == tuple(range(3 * r + 4))


def test_column_blocked_pass_equals_one_block(monkeypatch):
    """A pass split into 64-column blocks (merged by a row sort) builds the
    same balls as one block over all columns."""
    graph = random_network(60, 3, average_degree=4.0, rng=np.random.default_rng(5))
    adjacency = graph.extended_graph().adjacency_sets()
    assert len(adjacency) > 2 * 64
    one_block = NeighborhoodTable(adjacency, protocol_radii(2))
    monkeypatch.setattr(neighborhoods_module, "_BLOCK_BYTES", 1)
    blocked = NeighborhoodTable(adjacency, protocol_radii(2))
    for hops in protocol_radii(2):
        assert list(blocked.balls(hops)) == list(one_block.balls(hops))
        assert list(blocked.balls(hops)) == fresh_balls(adjacency, hops)


def test_balls_share_one_int_object_per_vertex():
    """Balls hold the table's ints, not one fresh int per row read: the
    protocol's set copies and differences then touch one object per vertex.
    Vertex ids above 256, which CPython does not cache, are checked."""
    n = 400
    adjacency = [{u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)]
    table = NeighborhoodTable(adjacency, protocol_radii(1))
    for u in (300, 399):
        holders = [
            table.balls(hops)[v]
            for hops in (*table.radii, 7)
            for v in (u - 1, u, min(u + 1, n - 1))
        ]
        objects = [next(member for member in ball if member == u) for ball in holders]
        assert all(found is objects[0] for found in objects)


def test_ball_sizes_after_an_update_equal_a_fresh_build():
    """A view answers ``len`` from the set :meth:`NeighborhoodTable.update`
    stored, never from the stale row of the pass."""
    n = 30
    adjacency = [{u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)]
    table = NeighborhoodTable(adjacency, protocol_radii(2))
    table.balls(11)  # an on-demand radius is refreshed as well
    before = {hops: [len(ball) for ball in table.balls(hops)] for hops in table.radii}
    # Close the path into a ring and cut it in the middle.
    adjacency[0].add(n - 1)
    adjacency[n - 1].add(0)
    adjacency[14].discard(15)
    adjacency[15].discard(14)
    affected = table.update({0, n - 1, 14, 15})
    assert affected
    for hops in table.radii:
        sizes = [len(table.balls(hops)[vertex]) for vertex in range(n)]
        assert sizes == [len(ball) for ball in fresh_balls(adjacency, hops)]
        assert sizes != before[hops]


def test_concurrent_first_reads_of_a_view_leave_the_table_as_built():
    """Threads racing to make the same balls (more threads than cores,
    frequent switches, opposite read orders) all get one set per vertex."""
    graph = random_network(30, 3, average_degree=4.0, rng=np.random.default_rng(7))
    adjacency = graph.extended_graph().adjacency_sets()
    table = NeighborhoodTable(adjacency, protocol_radii(2))
    view = table.balls(8)
    order = list(range(len(view)))

    def read_all(thread):
        vertices = order if thread % 2 else order[::-1]
        return {vertex: view[vertex] for vertex in vertices}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            reads = list(pool.map(read_all, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for read in reads:
        assert all(read[vertex] is view[vertex] for vertex in order)
    fresh = NeighborhoodTable(adjacency, table.radii)
    for hops in table.radii:
        assert list(table.balls(hops)) == list(fresh.balls(hops))


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
            assert list(engine.neighborhoods.balls(hops)) == [
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
        assert list(table.balls(hops)) == list(fresh.balls(hops))


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
        assert list(rebuilt.balls(hops)) == list(table.balls(hops))
