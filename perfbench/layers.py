"""Per-layer self-time accounting from the outside of the program.

The benchmark never edits ``src/``: it wraps the public entry points of each
``repro.*`` layer in place (class attributes and module globals) and keeps a
stack of open frames.  A frame's *self time* is its wall time minus the time
of the frames opened inside it, so the self-times of one iteration plus the
harness frame's own self time (``unaccounted_s``) sum to the iteration's wall
clock exactly.

Process-pool workers (the ``sweep-cold`` workload) inherit the wrappers
through ``fork``; each unit's totals are shipped back and merged by the
parent as *remote* time, which is reported per layer but kept out of the
parent's wall-clock identity (two workers run at once, so their sum exceeds
the parent's wall clock).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

#: The harness frame: one workload iteration.  Its self time is the part of
#: the wall clock no layer wrapper accounts for.
HARNESS = "unaccounted_s"


class Tracer:
    """A frame stack accumulating self time and work counts per metric."""

    def __init__(self) -> None:
        self.stack = []  # [metric, child_seconds] per open frame
        #: Self time per metric; frames opened with ``by_parent`` also add
        #: theirs under ``"<parent metric>/<metric>"``.
        self.times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.remote_times: Dict[str, float] = defaultdict(float)
        self.remote_counts: Dict[str, int] = defaultdict(int)
        self.unbalanced = 0

    def reset(self) -> None:
        """Forget everything recorded so far (start of one iteration)."""
        self.__init__()

    @property
    def current(self) -> Optional[str]:
        """Metric of the innermost open frame."""
        return self.stack[-1][0] if self.stack else None

    def call(self, metric: str, fn: Callable, *args, by_parent=False, **kwargs):
        """Run ``fn`` inside a frame charged to ``metric``."""
        parent = self.current
        frame = [metric, 0.0]
        self.stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            if self.stack and self.stack[-1] is frame:
                self.stack.pop()
            else:  # a frame closed out of order (a second thread interleaved)
                self.unbalanced += 1
                if frame in self.stack:
                    self.stack.remove(frame)
            self.times[metric] += elapsed - frame[1]
            if by_parent:
                self.times[f"{parent}/{metric}"] += elapsed - frame[1]
            if self.stack:
                self.stack[-1][1] += elapsed

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to work counter ``name``."""
        self.counts[name] += int(value)

    def merge_remote(self, records) -> None:
        """Fold in the ``times`` and ``counts`` that pool workers shipped."""
        for record in records:
            for name, value in record["times"].items():
                self.remote_times[name] += value
            for name, value in record["counts"].items():
                self.remote_counts[name] += value


def wrap(tracer: Tracer, owner, name: str, metric: str, after=None, by_parent=False):
    """Charge calls of ``owner.name`` to ``metric``.

    Only calls made while a measured iteration is open are charged, so
    set-up and the benchmark's own output checks never count.  ``after(result,
    args)`` runs outside the frame (counting work is harness time, not layer
    time).
    """

    raw = vars(owner).get(name)
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return original(*args, **kwargs)
        result = tracer.call(metric, original, *args, by_parent=by_parent, **kwargs)
        if after is not None:
            after(result, args)
        return result

    setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""
    import repro.api as api
    import repro.channels.state as channels_state
    import repro.core.estimators as estimators
    import repro.distributed.ptas as ptas
    import repro.distributed.runtime as runtime
    import repro.faults.runtime as faults_runtime
    import repro.graph.extended as extended
    import repro.serve.service as service
    import repro.sim.backends as backends
    import repro.sim.engine as sim_engine
    import repro.sim.periodic as sim_periodic
    import repro.spec.runner as runner
    import repro.spec.scenario as scenario
    import repro.sweep.engine as sweep_engine
    import repro.sweep.store as store

    def count_entries(_result, args):
        protocol = args[0]
        tracer.count(
            "graph.neighborhood_entries",
            sum(
                len(ball)
                for table in protocol.transport_neighborhoods().values()
                for ball in table
            ),
        )

    def count_decision(result, _args):
        tracer.count("distributed.decisions")
        tracer.count("distributed.mini_rounds", result.num_mini_rounds)
        tracer.count("distributed.messages", result.costs.communication.total_messages)
        tracer.count(
            "distributed.deliveries", result.costs.communication.total_deliveries
        )

    def count(name):
        return lambda _result, _args: tracer.count(name)

    # graph
    wrap(tracer, scenario.TopologySpec, "build", "graph.topology_s")
    wrap(tracer, extended.ExtendedConflictGraph, "__init__", "graph.extended_s")
    wrap(tracer, extended.ExtendedConflictGraph, "adjacency_sets", "graph.extended_s")
    wrap(
        tracer, ptas.DistributedRobustPTAS, "__init__", "graph.neighborhoods_s",
        after=count_entries,
    )
    # distributed
    wrap(
        tracer, ptas.DistributedRobustPTAS, "run", "distributed.decision_s",
        after=count_decision,
    )
    # mwis
    for module in (runtime, faults_runtime):
        wrap(
            tracer, module, "solve_local_mwis", "mwis.local_s",
            after=count("mwis.local_calls"), by_parent=True,
        )
    wrap(tracer, api.ChannelAccessSystem, "optimal_value", "mwis.exact_s")
    # core / channels / sim
    for name in ("index_weights", "llr_index_weights"):
        wrap(tracer, estimators.WeightEstimator, name, "core.index_s")
    for name in ("update", "update_arms"):
        wrap(tracer, estimators.WeightEstimator, name, "core.observe_s")
    wrap(tracer, channels_state.ChannelState, "sample_arm_array", "channels.sample_s")
    wrap(tracer, sim_engine.Simulator, "run", "sim.loop_s")
    wrap(tracer, sim_periodic.PeriodicSimulator, "run", "sim.loop_s")
    # faults
    wrap(
        tracer, faults_runtime.FaultInjectionEngine, "run", "faults.run_s",
        after=count("faults.cells"),
    )
    # sweep (write and read side)
    wrap(tracer, sweep_engine, "plan_units", "sweep.plan_s")
    wrap(tracer, backends.ProcessBackend, "map", "sweep.pool_s")
    wrap(
        tracer, store.ResultStore, "put", "sweep.store_put_s",
        after=count("sweep.store_puts"),
    )
    wrap(
        tracer, store.ResultStore, "load", "sweep.store_load_s",
        after=count("sweep.store_loads"),
    )
    wrap(tracer, store.ResultStore, "__contains__", "sweep.store_load_s")
    # spec envelopes
    for module in (sweep_engine, service):
        wrap(tracer, module, "assemble_point", "spec.envelope_s")
    for name in ("to_dict", "from_dict"):
        wrap(tracer, runner.ExperimentResult, name, "spec.envelope_s")
    # serve
    wrap(tracer, service, "plan_job", "serve.plan_job_s")


def phase_times(observer) -> Dict[str, float]:
    """Seconds per ``protocol.phase`` span, keyed by phase name."""
    totals: Dict[str, float] = defaultdict(float)
    for span in observer.spans():
        if span.name == "protocol.phase":
            totals[str(span.attrs.get("phase"))] += span.duration_s
    return totals


def trace_unit(tracer: Tracer, run_unit, payload):
    """Run one sweep unit traced, in a pool worker.

    Returns ``(result, times, counts)``: the unit's layer self-times (the
    worker's own remainder left out: it is not parent wall clock), its phase
    span totals as ``phase.<name>`` and its work counts, for the parent's
    :meth:`Tracer.merge_remote`.
    """
    from repro.obs import TracingObserver, use_observer

    tracer.reset()
    with use_observer(TracingObserver()) as observer:
        result = tracer.call(HARNESS, run_unit, payload)
    times = dict(tracer.times)
    del times[HARNESS]
    for phase, seconds in phase_times(observer).items():
        times[f"phase.{phase}"] = seconds
    return result, times, dict(tracer.counts)
