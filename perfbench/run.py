"""The repository benchmark: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload fig7-paper [--seed 2014] [--seconds 10] [--trace 0]
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in fresh interpreters (``bench.py``): with ``--trace 0``
two set-up probes plus one untraced measurement run; with ``--trace 1`` one
untraced and one traced run of the same length.  The script prints every
metric by name with its unit, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2014
WORKLOADS = ("fig7-paper", "fig8-head", "sweep-cold", "serve-warm")
#: Extra interpreters per ``--trace 0`` run that only measure set-up time.
SETUP_PROBES = 4
#: Seconds one child interpreter may take beyond the measured time.
CHILD_GRACE_S = 90.0
#: ``unaccounted_s`` may be at most this share of ``wall_s`` (traced run).
MAX_UNACCOUNTED = 0.05
#: fig8-paper: 4 periods x 1000 decisions x 2 policies, one system each.
FIG8_PAPER_DECISIONS = 8000
FIG8_PAPER_SYSTEMS = 8

#: What one operation is, per workload, and the workload-specific names its
#: median, p99 and rate are printed under.
OPERATION = {
    "fig7-paper": ("decision", ["decision_p50_ms", "decision_p99_ms", "decisions_per_s"]),
    "fig8-head": ("decision", ["decision_p50_ms", "decision_p99_ms", "decisions_per_s"]),
    "sweep-cold": ("unit", ["unit_p50_ms", "unit_p99_ms", "units_per_s"]),
    "serve-warm": ("request", ["req_p50_ms", "req_p99_ms", "req_per_s"]),
}

#: Per-layer time metrics (seconds per iteration) and work counts.
LAYER_TIMES = (
    "graph.topology_s", "graph.extended_s", "graph.neighborhoods_s",
    "distributed.decision_s", "mwis.local_s", "mwis.exact_s",
    "core.index_s", "core.observe_s", "channels.sample_s", "sim.loop_s",
    "faults.run_s", "sweep.plan_s", "sweep.pool_s", "sweep.store_put_s",
    "sweep.store_load_s", "spec.envelope_s", "serve.plan_job_s", "serve.http_s",
)
LAYER_COUNTS = (
    "graph.neighborhood_entries", "distributed.decisions",
    "distributed.mini_rounds", "distributed.messages", "distributed.deliveries",
    "mwis.local_calls", "faults.cells", "sweep.store_puts", "sweep.units_computed",
    "sweep.store_loads", "serve.requests", "serve.jobs_replayed",
    "serve.units_cache_hit",
)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: the program failed a check)."""


def run_child(workload, mode, seed, seconds, work: Path) -> Dict:
    """Run ``bench.py`` in a fresh interpreter and return its report."""
    child = work / f"{workload}-{mode}-{time.monotonic_ns()}"
    out = child.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(HERE / "bench.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--work", str(child), "--out", str(out),
    ]
    launched = time.monotonic()
    proc = subprocess.Popen(
        command + ["--launched", repr(launched)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} ({mode}) did not finish in time") from None
    finally:
        # Pool workers live in the child's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.exists():
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-15:]
        raise BenchmarkError(
            f"{workload} ({mode}) exited with {proc.returncode}:\n" + "\n".join(tail)
        )
    return json.loads(out.read_text())


def check_iterations(workload, seed, iterations) -> List[str]:
    """Digests and work counts must repeat exactly (and match the record)."""
    problems = []
    digests = {item["digest"] for item in iterations}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different output digests across iterations")
    counts = [item["counts"] for item in iterations]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ across iterations")
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text())
        expected = recorded["workloads"].get(workload)
        if expected is None:
            problems.append("no digest recorded for this workload")
        else:
            if expected["digest"] not in digests:
                problems.append("output digest differs from the recorded one")
            if expected["counts"] != counts[0]:
                problems.append(
                    f"work counts {counts[0]} differ from the recorded {expected['counts']}"
                )
    return problems


def summarize(workload, seed, report) -> Dict:
    """Operation totals, failures and problems of one measurement run."""
    iterations = report["iterations"]
    run_problems = report["problems"] + check_iterations(workload, seed, iterations)
    attempted = sum(len(item["latencies_s"]) for item in iterations)
    # A run-level check failing counts as one more failed operation.
    failed = sum(item["failed"] for item in iterations) + len(run_problems)
    problems = [p for item in iterations for p in item["problems"]] + run_problems
    if failed and not problems:
        problems.append(f"{failed} operation(s) failed their output check")
    return {
        "iterations": iterations,
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "problems": problems,
    }


def end_to_end(workload, seed, seconds, work) -> Dict:
    probes = [run_child(workload, "setup", seed, seconds, work) for _ in range(SETUP_PROBES)]
    main = run_child(workload, "run", seed, seconds, work)
    summary = summarize(workload, seed, main)
    iterations = summary["iterations"]
    walls = [item["wall_s"] for item in iterations]
    latencies = [s for item in iterations for s in item["latencies_s"]]
    setups = [report["setup_s"] for report in probes + [main]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "ops_per_s": (len(latencies) / sum(walls), "1/s"),
    }
    # Printed, not gated: a shared machine moves tail percentiles by more
    # than any bound BENCHMARK.json may set.
    p99_ms = percentile(latencies, 99) * 1e3
    op, names = OPERATION[workload]
    raw_walls = [item["raw_wall_s"] for item in iterations]
    factors = [item["factor"] for item in iterations]
    lines = [
        f"{workload}: seed {seed}, {len(iterations)} iteration(s), "
        f"{len(latencies)} {op}s, set-ups "
        + ", ".join(f"{value:.3f}" for value in setups) + " s",
        f"  (measured: wall {statistics.median(raw_walls):.4f} s at speed factor "
        f"{statistics.median(factors):.3f}; set-up "
        f"{statistics.median(r['raw_setup_s'] for r in probes + [main]):.4f} s)",
        f"  wall_s            {metrics['wall_s'][0]:12.4f} s",
        f"  setup_s           {metrics['setup_s'][0]:12.4f} s",
        f"  peak_rss_mb       {metrics['peak_rss_mb'][0]:12.1f} MB",
        f"  {names[0]:17} {metrics['op_p50_ms'][0]:12.4f} ms   (op_p50_ms)",
        f"  {names[1]:17} {p99_ms:12.4f} ms   (not gated, {len(latencies)} samples)",
        f"  {names[2]:17} {metrics['ops_per_s'][0]:12.4f} 1/s  (ops_per_s)",
        f"  failed_frac       {summary['failed'] / summary['attempted']:12.4f}"
        f"      ({summary['failed']}/{summary['attempted']})",
        f"  counts            {json.dumps(iterations[0]['counts'], sort_keys=True)}",
        f"  digest            {iterations[0]['digest']}",
    ]
    if workload == "fig8-head":
        estimate = (
            metrics["op_p50_ms"][0] / 1e3 * FIG8_PAPER_DECISIONS
            + statistics.median(main["precompute_s"]) * FIG8_PAPER_SYSTEMS
        )
        lines.append(
            f"  estimate: fig8-paper wall clock ~{estimate / 60:.1f} min "
            f"(decision p50 x {FIG8_PAPER_DECISIONS} + precompute x "
            f"{FIG8_PAPER_SYSTEMS}; not measured, not gated)"
        )
    return {**summary, "metrics": metrics, "lines": lines}


def per_layer(workload, seed, seconds, work) -> Dict:
    untraced = summarize(workload, seed, run_child(workload, "run", seed, seconds, work))
    traced_report = run_child(workload, "trace", seed, seconds, work)
    traced = summarize(workload, seed, traced_report)
    snapshots = [item["layers"] for item in traced["iterations"]]
    problems = untraced["problems"] + traced["problems"]
    if traced_report["unbalanced_frames"]:
        problems.append(f"{traced_report['unbalanced_frames']} unbalanced trace frame(s)")

    def mean_time(key):
        return statistics.fmean(
            s["times"].get(key, 0.0) + s["remote_times"].get(key, 0.0) for s in snapshots
        )

    def count(key):
        values = [s["counts"].get(key, 0) + s["remote_counts"].get(key, 0) for s in snapshots]
        if any(v != values[0] for v in values):
            problems.append(f"{key} differs across traced iterations")
        return values[0]

    def phase(name):
        return statistics.fmean(
            s["phases"].get(name, 0.0) + s["remote_times"].get(f"phase.{name}", 0.0)
            for s in snapshots
        )

    metrics = {key: (mean_time(key), "s") for key in LAYER_TIMES}
    metrics.update({key: (count(key), "count") for key in LAYER_COUNTS})
    messages = metrics["distributed.messages"][0]
    metrics["distributed.deliveries_per_message"] = (
        metrics["distributed.deliveries"][0] / messages if messages else 0.0, "ratio"
    )
    metrics["distributed.wb_s"] = (phase("WB"), "s")
    metrics["distributed.ld_s"] = (phase("LD"), "s")
    # Local MWIS solves run inside the LB phase; report the protocol's own share.
    metrics["distributed.lb_s"] = (
        phase("LB") - mean_time("distributed.decision_s/mwis.local_s"), "s"
    )
    metrics["sweep.unit_compute_s"] = (mean_time("sweep.unit_compute_s"), "s")
    traced_wall = statistics.fmean(item["raw_wall_s"] for item in traced["iterations"])
    unaccounted = mean_time("unaccounted_s")
    metrics["unaccounted_s"] = (unaccounted, "s")
    untraced_wall = statistics.median(item["wall_s"] for item in untraced["iterations"])
    traced_median = statistics.median(item["wall_s"] for item in traced["iterations"])
    metrics["trace_overhead_frac"] = (traced_median / untraced_wall - 1.0, "ratio")
    if unaccounted > MAX_UNACCOUNTED * traced_wall:
        problems.append(
            f"unaccounted_s is {unaccounted / traced_wall:.1%} of the traced wall clock"
        )
    lines = [f"{workload}: seed {seed}, traced wall {traced_wall:.4f} s per iteration"]
    lines += [
        f"  {key:36} {value:14.6f} {unit}" for key, (value, unit) in sorted(metrics.items())
    ]
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"] + (1 if problems else 0),
        "problems": problems,
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The build: byte-compile once so no timed interpreter pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True,
        stdout=subprocess.DEVNULL,
    )
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, work)
            for line in results[workload]["lines"]:
                print(line, flush=True)
            for problem in results[workload]["problems"]:
                print(f"  CHECK FAILED: {problem}", flush=True)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    prefix = len(workloads) > 1
    metrics = {
        (f"{workload}/{name}" if prefix else name): {"value": value, "unit": unit}
        for workload, result in results.items()
        for name, (value, unit) in result["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": not any(r["problems"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
