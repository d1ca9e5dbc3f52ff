"""Execution backends and the process-parallel batch path."""

import numpy as np
import pytest

from repro.api import ChannelAccessSystem
from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.mwis.exact import ExactMWISSolver
from repro.sim.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    ensure_picklable,
    resolve_backend,
)


def _build_environment():
    graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_channels=2)
    means = np.array([[2.0, 5.0], [7.0, 1.0], [3.0, 4.0], [6.0, 2.0]])
    channels = ChannelState.from_mean_matrix(means, relative_std=0.05)
    return graph, channels


def _system(seed):
    return ChannelAccessSystem(*_build_environment(), seed=seed)


def _module_level_factory(index):
    """A picklable policy factory (module-level, unlike a test-local lambda)."""
    graph, _ = _build_environment()
    return CombinatorialUCBPolicy(
        ExtendedConflictGraph(graph), solver=ExactMWISSolver(), reward_scale=7.0
    )


def _assert_same_trace(ours, theirs, columns=("expected", "observed", "estimated")):
    assert ours.trace.strategies == theirs.trace.strategies
    for column in columns:
        assert np.array_equal(ours.trace.column(column), theirs.trace.column(column))


def _square(x):
    return x * x


class TestResolveBackend:
    def test_names_resolve_to_their_classes(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_none_uses_the_default(self):
        assert isinstance(resolve_backend(None, default="thread"), ThreadBackend)

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="process"):
            resolve_backend("gpu")

    def test_backend_names_constant_matches_registry(self):
        for name in BACKEND_NAMES:
            assert resolve_backend(name).name == name


class TestBackendMapping:
    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_map_preserves_item_order(self, name):
        backend = resolve_backend(name)
        assert backend.map(_square, [3, 1, 4, 1, 5], jobs=2) == [9, 1, 16, 1, 25]

    def test_empty_items_short_circuit(self):
        assert ProcessBackend().map(_square, [], jobs=2) == []

    def test_non_positive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be positive"):
            SerialBackend().map(_square, [1], jobs=0)

    def test_process_backend_rejects_unpicklable_function_eagerly(self):
        captured = object()
        with pytest.raises(ValueError, match="not picklable"):
            ProcessBackend().map(lambda x: captured, [1], jobs=1)

    def test_ensure_picklable_names_the_offender(self):
        with pytest.raises(ValueError, match="my factory.*module level"):
            ensure_picklable(lambda i: i, "my factory")


class TestBatchProcessBackend:
    def test_process_results_bit_identical_to_serial(self):
        serial = _system(11).simulate_batch(
            _module_level_factory, num_rounds=20, replications=2, backend="serial"
        )
        process = _system(11).simulate_batch(
            _module_level_factory,
            num_rounds=20,
            replications=2,
            jobs=2,
            backend="process",
        )
        for ours, theirs in zip(serial.results, process.results):
            _assert_same_trace(ours, theirs)

    def test_unpicklable_factory_fails_eagerly_naming_it(self):
        system = _system(11)
        factory = lambda index: CombinatorialUCBPolicy(  # noqa: E731
            system.extended_graph, solver=ExactMWISSolver(), reward_scale=7.0
        )
        with pytest.raises(ValueError, match="policy factory.*<lambda>.*module level"):
            system.simulate_batch(
                factory, num_rounds=5, replications=2, jobs=2, backend="process"
            )

    def test_lambda_factories_still_fine_on_thread_backend(self):
        system = _system(11)
        batch = system.simulate_batch(
            lambda index: CombinatorialUCBPolicy(
                system.extended_graph, solver=ExactMWISSolver(), reward_scale=7.0
            ),
            num_rounds=5,
            replications=2,
            jobs=2,
        )
        assert len(batch.results) == 2


class TestFirstReplication:
    def test_window_shift_reproduces_the_inner_replication(self):
        full = _system(23).simulate_batch(
            _module_level_factory, num_rounds=15, replications=3
        )
        shifted = _system(23).simulate_batch(
            _module_level_factory, num_rounds=15, replications=1, first_replication=1
        )
        _assert_same_trace(full.results[1], shifted.results[0], columns=("observed",))

    def test_negative_first_replication_rejected(self):
        with pytest.raises(ValueError, match="first_replication"):
            _system(23).simulate_batch(
                _module_level_factory, num_rounds=5, first_replication=-1
            )

    def test_factory_receives_the_global_index(self):
        seen = []

        def factory(index):
            seen.append(index)
            return _module_level_factory(index)

        _system(23).simulate_batch(
            factory, num_rounds=5, replications=2, first_replication=3
        )
        assert seen == [3, 4]


class TestReplicationValidation:
    def test_zero_replications_rejected_with_a_clear_error(self):
        with pytest.raises(ValueError, match="replications must be positive"):
            _system(1).simulate_batch(
                _module_level_factory, num_rounds=5, replications=0
            )

    def test_negative_replications_rejected(self):
        with pytest.raises(ValueError, match="replications must be positive"):
            _system(1).simulate_batch(
                _module_level_factory, num_rounds=5, replications=-2
            )
