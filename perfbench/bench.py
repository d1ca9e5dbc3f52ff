"""One benchmark workload in one fresh interpreter (started by ``run.py``).

    python3 perfbench/bench.py WORKLOAD --seed N --seconds S --mode MODE \
        --launched T --work DIR --out FILE

``MODE`` is ``setup`` (stop at the first unit of work and report the set-up
time), ``run`` (the untraced measurement loop) or ``trace`` (the same loop
with every layer entry point wrapped, see ``layers.py``).  ``T`` is the
``time.monotonic()`` reading of the parent just before it launched this
interpreter.  The report is written to ``FILE`` as JSON.

A run repeats whole iterations of the workload until ``S`` seconds have
passed (at least one).  Every iteration's outputs are checked, digested with
wall-clock fields stripped, and its exact work counts recorded, so ``run.py``
can require identical digests and counts across iterations and against the
recorded ones.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import layers

#: Seeds crossed into ``byzantine-sweep`` by ``sweep-cold`` (8 cells each).
SWEEP_SEEDS = 16
#: Distinct ``fig6-smoke`` specs of ``serve-warm``: more than the service's
#: job table (``ServiceConfig.max_job_history`` = 256) holds, so every
#: submission misses the table and is answered from the store.
SERVE_SPECS = 320
#: Worker processes of the process-pool sweeps.
POOL_JOBS = 2
#: Responses of ``serve-warm`` compared with a direct run, per run.
SERVE_SAMPLES = 3

#: Envelope fields that legitimately differ between identical runs.
WALL_CLOCK_KEYS = frozenset({"wall_clock_s", "simulated_wall_clock_s"})

#: Duration of one calibration sample on the reference machine.  Reported
#: times are *reference seconds*: measured seconds x REFERENCE_S / the
#: duration of a calibration sample taken next to the measured work.
REFERENCE_S = 0.010
#: Minimum spacing of calibration samples inside a measured region.
CALIBRATE_EVERY_S = 0.25


def calibration_kernel() -> int:
    """Fixed pure-Python work (dict, set and integer operations).

    Its duration defines the reference second, so it must never change.
    """
    table = {}
    seen = set()
    acc = 0
    for i in range(40000):
        table[i & 1023] = i
        seen.add(i % 769)
        acc += len(seen) ^ i
    return acc + len(table)


class Speed:
    """The machine's current speed, sampled with :func:`calibration_kernel`.

    A shared machine's speed drifts by tens of percent from one second to
    the next.  Timing the fixed kernel next to the measured work and scaling
    each measured time by ``REFERENCE_S / kernel time`` cancels most of that
    drift, so commits measured at different moments stay comparable.
    """

    def __init__(self, in_regions: bool) -> None:
        #: Whether :meth:`tick` may sample inside a measured region (traced
        #: runs sample only between iterations, outside every frame).
        self.in_regions = in_regions
        self.factor = 1.0
        self.factors: List[float] = []
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        started = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - started
        self.spent_s += elapsed
        self.factor = REFERENCE_S / elapsed
        self.factors.append(self.factor)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample again when the last sample is older than CALIBRATE_EVERY_S."""
        if self.in_regions and time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()


def pin_to_one_cpu() -> None:
    """Run this process (and the threads it starts later) on one CPU.

    The calibration kernel then times the core the work runs on, and a
    client and a server thread hand the interpreter lock over on one core in
    every run, instead of on one or two depending on the scheduler.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


#: How far a seed's decision work may differ from the preset's (see
#: :func:`matched_seed`).
WORK_TOLERANCE = 0.02


def matched_seed(spec, seed: int) -> int:
    """The scenario seed that workload seed ``seed`` runs ``spec`` with.

    The preset's own seed runs the preset itself.  Any other seed takes the
    first of ``seed, 100000 * (seed + 1), 100000 * (seed + 1) + 1, ...``
    (disjoint for distinct seeds) whose network gives the protocol as much
    work as the preset's, to within WORK_TOLERANCE.  The measure of work is
    the summed size of the (2r+1)-hop neighbourhoods of H — how far every
    election and weight broadcast reaches — which the decision time, the
    message deliveries and the memory of the neighbourhood tables all
    follow.  Seeds thus vary the network, not the amount of work.
    """
    import numpy as np

    from repro.graph.extended import ExtendedConflictGraph
    from repro.graph.neighborhoods import r_hop_neighborhood_arrays

    radius = 2 * spec.policies[0].r + 1

    def work(candidate: int) -> int:
        graph = spec.topology.build(np.random.default_rng(candidate))
        offsets, _ = r_hop_neighborhood_arrays(ExtendedConflictGraph(graph), radius)
        return int(offsets[-1])

    target = work(spec.seed)
    for candidate in itertools.chain([seed], itertools.count(100000 * (seed + 1))):
        try:
            if abs(work(candidate) - target) <= WORK_TOLERANCE * target:
                return candidate
        except RuntimeError:  # connected-random found no connected sample
            continue
    raise AssertionError("unreachable")


class FirstUnit(BaseException):
    """Raised at the first unit of work in ``setup`` mode to end the run.

    A ``BaseException`` so that no ``except Exception`` in the program
    swallows it on the way out.
    """


def strip_wall_clocks(value):
    """``value`` without the wall-clock fields (recursively)."""
    if isinstance(value, dict):
        return {
            key: strip_wall_clocks(item)
            for key, item in value.items()
            if key not in WALL_CLOCK_KEYS
        }
    if isinstance(value, list):
        return [strip_wall_clocks(item) for item in value]
    return value


def digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def envelope_problem(envelope: Dict) -> Optional[str]:
    """Why an envelope fails validation or a JSON round trip, else ``None``."""
    from repro.spec.runner import ExperimentResult
    from repro.spec.scenario import SpecError

    try:
        back = ExperimentResult.from_dict(json.loads(json.dumps(envelope))).to_dict()
    except SpecError as err:
        return f"envelope of {envelope.get('scenario')!r} does not validate: {err}"
    if back != envelope:
        return f"envelope of {envelope.get('scenario')!r} changed in a JSON round trip"
    return None


class Probe:
    """The untraced instrumentation: first unit, decision latency, checks.

    Wraps ``DistributedRobustPTAS`` (each ``run`` is one strategy decision)
    and ``ProcessBackend.map`` (where a sweep dispatches its first unit).
    """

    def __init__(self, stop_at_first_unit: bool, speed: Speed) -> None:
        self.stop_at_first_unit = stop_at_first_unit
        self.speed = speed
        self.first_unit_at: Optional[float] = None
        #: Time the benchmark itself spent (calibrating, generating inputs)
        #: before the first unit, which is not the program's set-up, and the
        #: number of speed samples taken by then.
        self.benchmark_s = 0.0
        self.benchmark_before_first_unit = 0.0
        self.samples_before_first_unit = 0
        #: Cleared while set-up work that uses the same entry points runs.
        self.armed = True
        self.decision_s: List[float] = []
        self.precompute_s: List[float] = []
        self.counts: Counter = Counter()
        self.failed_decisions = 0
        self._adjacency = weakref.WeakKeyDictionary()

    def first_unit(self) -> None:
        """Mark the first unit of work (and stop there in ``setup`` mode)."""
        if self.armed and self.first_unit_at is None:
            self.first_unit_at = time.monotonic()
            self.benchmark_before_first_unit = self.speed.spent_s + self.benchmark_s
            self.samples_before_first_unit = len(self.speed.factors)
            if self.stop_at_first_unit:
                raise FirstUnit

    def install(self) -> None:
        from repro.distributed.ptas import DistributedRobustPTAS
        from repro.mwis.base import is_independent
        from repro.sim.backends import ProcessBackend

        probe = self
        init = DistributedRobustPTAS.__init__
        run = DistributedRobustPTAS.run
        pool_map = ProcessBackend.map

        def timed_init(protocol, *args, **kwargs):
            started = time.perf_counter()
            init(protocol, *args, **kwargs)
            probe.precompute_s.append(time.perf_counter() - started)
            adjacency = args[0] if args else kwargs.get("adjacency")
            if adjacency is None:
                adjacency = protocol.transport.adjacency
            probe._adjacency[protocol] = adjacency

        def timed_run(protocol, *args, **kwargs):
            probe.first_unit()
            probe.speed.tick()
            started = time.perf_counter()
            result = run(protocol, *args, **kwargs)
            elapsed = time.perf_counter() - started
            probe.decision_s.append(elapsed * probe.speed.factor)
            costs = result.costs
            probe.counts["decisions"] += 1
            probe.counts["mini_rounds"] += result.num_mini_rounds
            probe.counts["messages"] += costs.communication.total_messages
            probe.counts["deliveries"] += costs.communication.total_deliveries
            probe.counts["local_mwis_calls"] += costs.computation.local_mwis_calls
            winners = result.independent_set.vertices
            if not (result.independent and is_independent(probe._adjacency[protocol], winners)):
                probe.failed_decisions += 1
            return result

        def dispatching_map(backend, *args, **kwargs):
            probe.first_unit()
            return pool_map(backend, *args, **kwargs)

        DistributedRobustPTAS.__init__ = timed_init
        DistributedRobustPTAS.run = timed_run
        ProcessBackend.map = dispatching_map


class Workload:
    """One named workload: set-up, measured iterations, output checks."""

    def __init__(self, seed: int, work: Path, probe: Probe, tracer) -> None:
        self.seed = seed
        self.work = work
        self.probe = probe
        self.tracer = tracer

    def setup(self) -> None:
        """Work done once before the first iteration."""

    def iteration(self) -> Dict:
        raise NotImplementedError

    def final_problems(self) -> List[str]:
        """Checks made once per run, after the last iteration."""
        return []

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    # ------------------------------------------------------------------
    def measured(self, body):
        """Run ``body`` as one timed iteration; return ``(value, timing, layers)``.

        ``timing`` holds the raw wall clock (calibration samples taken inside
        ``body`` excluded), the mean speed factor of the samples taken
        before, during and after it, and their product ``wall_s``.  Traced
        runs open the harness frame around ``body`` and install a
        ``TracingObserver`` so the protocol's WB/LD/LB phase spans can be
        read back; ``layers`` is ``None`` when untraced.
        """
        speed = self.probe.speed
        speed.sample()
        first_sample = len(speed.factors) - 1
        spent_before = speed.spent_s
        observer = None
        if self.tracer is None:
            started = time.perf_counter()
            value = body()
            raw_s = time.perf_counter() - started
        else:
            value, raw_s, observer = self._traced(body)
        raw_s -= speed.spent_s - spent_before
        factors = self.collect()
        speed.sample()
        factors += speed.factors[first_sample:]
        factor = sum(factors) / len(factors)
        timing = {"wall_s": raw_s * factor, "raw_wall_s": raw_s, "factor": factor}
        snapshot = None
        if observer is not None:
            tracer = self.tracer
            snapshot = {
                "times": dict(tracer.times),
                "counts": dict(tracer.counts),
                "remote_times": dict(tracer.remote_times),
                "remote_counts": dict(tracer.remote_counts),
                "phases": dict(layers.phase_times(observer)),
                "unbalanced": tracer.unbalanced,
            }
        return value, timing, snapshot

    def _traced(self, body):
        """``body`` inside the harness frame under a ``TracingObserver``."""
        from repro.obs import TracingObserver, use_observer

        self.tracer.reset()
        observer = TracingObserver()

        def traced():
            with use_observer(observer):
                return body()

        started = time.perf_counter()
        value = self.tracer.call(layers.HARNESS, traced)
        return value, time.perf_counter() - started, observer

    def collect(self) -> List[float]:
        """Gather what an iteration left outside this process.

        Returns the speed factors sampled elsewhere during the iteration.
        """
        return []


def record(timing, latencies, failed, problems, envelope_digest, counts, snapshot):
    """One iteration's report entry (latencies in reference seconds)."""
    return {
        **timing,
        "latencies_s": latencies,
        "failed": failed,
        "problems": problems,
        "digest": envelope_digest,
        "counts": dict(counts),
        "layers": snapshot,
    }


class PresetWorkload(Workload):
    """A registered preset run end to end with ``run_scenario``."""

    preset = ""
    overrides: Dict[str, object] = {}

    def setup(self) -> None:
        from repro.spec import apply_overrides, get_scenario

        pin_to_one_cpu()
        spec = apply_overrides(get_scenario(self.preset), self.overrides)
        started = time.monotonic()
        # The interpreters of one run share the search through a file.
        cached = self.work.parent / f"scenario-seed-{self.preset}-{self.seed}"
        if not cached.exists():
            cached.write_text(str(matched_seed(spec, self.seed)))
        self.spec = apply_overrides(spec, {"seed": int(cached.read_text())})
        self.probe.benchmark_s += time.monotonic() - started

    def iteration(self) -> Dict:
        from repro.spec.runner import run_scenario

        probe = self.probe
        first = len(probe.decision_s)
        counts_before = Counter(probe.counts)
        failed_before = probe.failed_decisions
        result, timing, snapshot = self.measured(lambda: run_scenario(self.spec))
        envelope = result.to_dict()
        problems = [p for p in [envelope_problem(envelope)] if p]
        counts = {k: v - counts_before[k] for k, v in probe.counts.items()}
        return record(
            timing,
            probe.decision_s[first:],
            probe.failed_decisions - failed_before + len(problems),
            problems,
            digest(strip_wall_clocks(envelope)),
            counts,
            snapshot,
        )


class Fig7Paper(PresetWorkload):
    preset = "fig7-paper"


class Fig8Head(PresetWorkload):
    preset = "fig8-paper"
    overrides = {"schedule.periods": [1], "schedule.num_periods": 10}


#: Set in the parent before the pool forks; inherited by every worker.
_POOL: Dict[str, object] = {}
_POOL_UNITS = itertools.count()


def pool_unit(payload):
    """One sweep unit as a pool worker runs it, timed at the worker's speed.

    Writes ``{"latency_s", "factor"}`` (plus the layer ``times`` and
    ``counts`` when traced) to a file the parent reads after the sweep: the
    value returned to the engine must stay the plain envelope.
    """
    from repro.sweep.worker import execute_unit

    speed, tracer = _POOL["speed"], _POOL["tracer"]
    speed.tick()
    record = {}
    started = time.perf_counter()
    if tracer is None:
        result = execute_unit(payload)
    else:
        result, record["times"], record["counts"] = layers.trace_unit(
            tracer, execute_unit, payload
        )
    record["latency_s"] = (time.perf_counter() - started) * speed.factor
    record["factor"] = speed.factor
    path = _POOL["directory"] / f"{os.getpid()}-{next(_POOL_UNITS)}.json"
    path.write_text(json.dumps(record))
    return result


class SweepCold(Workload):
    """``byzantine-sweep`` x a seed axis on the process backend, empty store."""

    def setup(self) -> None:
        from repro.sweep.presets import get_plan

        plan = get_plan("byzantine-sweep")
        self.base = plan.base
        self.grid = {axis.path: list(axis.values) for axis in plan.axes}
        self.grid["seed"] = [self.seed + offset for offset in range(SWEEP_SEEDS)]
        self.units_dir = self.work / "units"
        self.units_dir.mkdir(parents=True, exist_ok=True)
        self.stores = itertools.count()
        self.sample = None
        self.unit_records: List[Dict] = []
        # The engine hands its units to pool_unit, which forked workers
        # inherit together with _POOL.
        import repro.sweep.engine as sweep_engine

        _POOL.update(speed=self.probe.speed, tracer=self.tracer, directory=self.units_dir)
        sweep_engine.execute_unit = pool_unit

    def collect(self) -> List[float]:
        paths = sorted(self.units_dir.glob("*.json"))
        self.unit_records = [json.loads(path.read_text()) for path in paths]
        for path in paths:
            path.unlink()
        if self.tracer is not None:
            self.tracer.merge_remote(self.unit_records)
        return [record["factor"] for record in self.unit_records]

    def iteration(self) -> Dict:
        from repro.sweep.engine import run_sweep
        from repro.sweep.plan import SweepPlan
        from repro.sweep.store import ResultStore

        store = ResultStore(self.work / f"store-{next(self.stores)}")
        tracer = self.tracer

        def body():
            args = ("sweep-cold", self.base, self.grid)
            plan = (
                tracer.call("sweep.plan_s", SweepPlan.from_grid, *args)
                if tracer is not None
                else SweepPlan.from_grid(*args)
            )
            return run_sweep(plan, store=store, backend="process", jobs=POOL_JOBS)

        sweep, timing, snapshot = self.measured(body)
        problems = []
        failed = 0
        points = []
        latencies = [record["latency_s"] for record in self.unit_records]
        for outcome in sweep.outcomes:
            envelope = outcome.result.to_dict()
            problem = envelope_problem(envelope)
            if problem:
                problems.append(problem)
                failed += 1
            points.append(
                {
                    "overrides": [list(pair) for pair in outcome.point.overrides],
                    "units": outcome.unit_hashes,
                    "result": strip_wall_clocks(envelope),
                }
            )
        if sweep.computed_units != len(sweep.outcomes):
            problems.append(
                f"{sweep.computed_units} units computed for {len(sweep.outcomes)} points"
            )
        audit = store.audit()
        if not audit.ok:
            problems.append(f"store audit found {len(audit.issues)} issue(s)")
        counts = {"units_computed": sweep.computed_units, "store_puts": len(store)}
        if snapshot is not None:
            snapshot["remote_times"]["sweep.unit_compute_s"] = sum(
                outcome.result.wall_clock_s for outcome in sweep.outcomes
            )
            snapshot["counts"]["sweep.units_computed"] = sweep.computed_units
        self.sample = sweep.outcomes[len(sweep.outcomes) // 2]
        shutil.rmtree(store.root)
        return record(
            timing, latencies, failed, problems, digest(points), counts, snapshot
        )

    def final_problems(self) -> List[str]:
        from repro.spec.runner import run_scenario

        direct = run_scenario(self.sample.point.spec).to_dict()
        if strip_wall_clocks(direct) != strip_wall_clocks(self.sample.result.to_dict()):
            return [f"sweep point {self.sample.point.label} differs from run_scenario"]
        return []


#: Service counters read per pass of ``serve-warm``.
SERVE_COUNTERS = {
    "store_loads": "serve.units.cache_hit",
    "units_computed": "serve.units.computed",
    "jobs_replayed": "serve.jobs.replayed",
}


class ServeWarm(Workload):
    """A live server over a warm store, one closed-loop client connection."""

    server = None

    def setup(self) -> None:
        from repro.serve import ServeClient, ServerThread, ServiceConfig
        from repro.spec import get_scenario
        from repro.sweep.engine import run_sweep
        from repro.sweep.plan import SweepPlan

        store = self.work / "serve-store"
        plan = SweepPlan.from_grid(
            "serve-warm",
            get_scenario("fig6-smoke"),
            {"seed": [self.seed + offset for offset in range(SERVE_SPECS)]},
        )
        self.probe.armed = False  # warming the store is set-up, not a unit
        run_sweep(plan, store=str(store), backend="process", jobs=POOL_JOBS)
        self.probe.armed = True
        pin_to_one_cpu()  # after the pool: it needs both CPUs
        self.specs = [point.spec.to_dict() for point in plan.points()]
        self.server = ServerThread(ServiceConfig(store=str(store))).start()
        self.client = ServeClient(self.server.host, self.server.port)
        self.first_pass = None  # (raw bytes digest, stripped digest)
        self.bodies: List[bytes] = []
        self.probe.first_unit()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def request(self, spec: Dict):
        job = self.client.submit_run(spec)["job"]
        return job, self.client.result_bytes(job["id"])

    def iteration(self) -> Dict:
        service = self.server.service
        before = {key: service.counter(name) for key, name in SERVE_COUNTERS.items()}
        latencies: List[float] = []
        responses = []
        tracer = self.tracer
        speed = self.probe.speed

        def body():
            for spec in self.specs:
                speed.tick()
                started = time.perf_counter()
                if tracer is None:
                    responses.append(self.request(spec))
                else:
                    responses.append(tracer.call("serve.http_s", self.request, spec))
                latencies.append((time.perf_counter() - started) * speed.factor)

        _, timing, snapshot = self.measured(body)
        counts = {
            key: int(service.counter(name) - before[key])
            for key, name in SERVE_COUNTERS.items()
        }
        counts["requests"] = len(responses)
        problems = []
        failed = sum(
            1
            for job, _ in responses
            if job["state"] != "done" or job["computed_units"] != 0
        )
        if failed:
            problems.append(f"{failed} response(s) not served from the store")
        if counts["jobs_replayed"]:
            problems.append(f"{counts['jobs_replayed']} job(s) replayed from the job table")
        self.bodies = [data for _, data in responses]
        raw = hashlib.sha256(b"".join(self.bodies)).hexdigest()
        if self.first_pass is not None and self.first_pass[0] == raw:
            stripped = self.first_pass[1]
        else:
            envelopes = [json.loads(data) for data in self.bodies]
            bad = [p for p in map(envelope_problem, envelopes) if p]
            problems.extend(bad)
            failed += len(bad)
            stripped = digest([strip_wall_clocks(e) for e in envelopes])
            if self.first_pass is None:
                self.first_pass = (raw, stripped)
        if snapshot is not None:
            snapshot["counts"]["serve.requests"] = counts["requests"]
            snapshot["counts"]["serve.jobs_replayed"] = counts["jobs_replayed"]
            snapshot["counts"]["serve.units_cache_hit"] = counts["store_loads"]
        return record(timing, latencies, failed, problems, stripped, counts, snapshot)

    def final_problems(self) -> List[str]:
        from repro.spec import ScenarioSpec
        from repro.spec.runner import run_scenario

        problems = []
        step = max(1, len(self.specs) // SERVE_SAMPLES)
        for index in range(0, len(self.specs), step)[:SERVE_SAMPLES]:
            direct = run_scenario(ScenarioSpec.from_dict(self.specs[index])).to_dict()
            served = json.loads(self.bodies[index])
            if strip_wall_clocks(direct) != strip_wall_clocks(served):
                problems.append(f"served result {index} differs from run_scenario")
        return problems


WORKLOADS = {
    "fig7-paper": Fig7Paper,
    "fig8-head": Fig8Head,
    "sweep-cold": SweepCold,
    "serve-warm": ServeWarm,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    speed = Speed(in_regions=args.mode == "run")
    speed.sample()  # the machine's speed while this interpreter sets up
    probe = Probe(stop_at_first_unit=args.mode == "setup", speed=speed)
    tracer = layers.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        layers.install_layers(tracer)
    probe.install()
    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work, probe, tracer)
    iterations: List[Dict] = []
    problems: List[str] = []
    try:
        workload.setup()
        started = time.monotonic()
        while not iterations or time.monotonic() - started < args.seconds:
            iterations.append(workload.iteration())
        problems.extend(workload.final_problems())
    except FirstUnit:
        pass
    finally:
        workload.close()
    setup_s = raw_setup_s = None
    if probe.first_unit_at is not None:
        if len(speed.factors) <= probe.samples_before_first_unit:
            speed.sample()
        factor = (speed.factors[0] + speed.factors[probe.samples_before_first_unit]) / 2
        raw_setup_s = (
            probe.first_unit_at - args.launched - probe.benchmark_before_first_unit
        )
        setup_s = raw_setup_s * factor
    report = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "iterations": iterations,
        "problems": problems,
        "precompute_s": probe.precompute_s,
        "peak_rss_mb": peak_rss_mb(),
        "unbalanced_frames": tracer.unbalanced if tracer is not None else 0,
    }
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
