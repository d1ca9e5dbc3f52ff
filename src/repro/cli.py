"""Command-line entry point for the experiment harness.

The primary interface is the declarative scenario API::

    python -m repro list                          # registered scenarios
    python -m repro show fig7-quick               # print a scenario's JSON spec
    python -m repro run fig7-quick                # run a registered scenario
    python -m repro run fig8-quick --set schedule.periods=[1,5] \
                                   --set replication.replications=4
    python -m repro run my-scenario.json --json out.json

``run`` accepts either a registered scenario name or a path to a JSON spec
file, applies ``--set key=value`` dotted-path overrides, and can export the
uniform result envelope (``repro.scenario-result/v1``) with ``--json``
(``--json -`` prints the JSON instead of the text report).

Multi-point studies go through the sweep engine (see ``docs/sweeps.md``)::

    python -m repro sweep fig7-smoke --grid replication.replications=1,2 \
                                     --backend process --jobs 4
    python -m repro sweep fig6-paper-sweep        # built-in paper grid
    python -m repro sweep --summarize             # what the store holds
    python -m repro sweep --list-plans

``sweep`` expands the grid into spec points, runs (point x replication)
work units on the chosen backend, and serves every already-computed unit
from the content-addressed store in ``--store`` (default ``.repro-store``),
so re-running a sweep is free and interrupted sweeps resume.

The same store backs the results service (see ``docs/serving.md``)::

    python -m repro serve --store .repro-store --jobs 4   # long-running server
    python -m repro submit fig6-smoke --wait --json -     # client submission
    python -m repro store verify --heal                   # offline CAS audit

``serve`` answers ``POST /v1/run`` / ``/v1/sweep`` from the warm store
(bit-identical to ``run``/``sweep`` envelopes), coalesces concurrent
identical submissions, and enforces per-client quotas; ``submit`` is the
matching client; ``store verify`` re-hashes and validates every stored
object, pruning damage with ``--heal``.

Table II has no scenario behind it (it is four constants and what Fig. 2
derives from them), so it keeps a command of its own::

    python -m repro table2

Every other table and figure of Section V is a registered preset (``fig6-*``,
``fig7-*``, ``fig8-*``, ``complexity-*``; see ``repro list``) run through
``repro run``.
"""

from __future__ import annotations

import argparse
import json
import logging
import pathlib
import sys
from typing import Optional, Sequence

from repro._codec import DecodeError, loads
from repro.obs import (
    TraceError,
    TracingObserver,
    summarize_trace_file,
    use_observer,
    write_trace,
)
from repro.sim.backends import BACKEND_NAMES
from repro.sim.timing import format_table2
from repro.spec import (
    ScenarioSpec,
    SpecError,
    apply_overrides,
    default_registry,
    format_result,
    get_scenario,
    parse_set_items,
    run_scenario,
)

__all__ = ["main", "build_parser"]

#: Diagnostics logger; everything goes to stderr so stdout stays reserved
#: for reports and machine-readable JSON (``--json -`` piping stays clean).
_LOG = logging.getLogger("repro")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _logging_parent() -> argparse.ArgumentParser:
    """Shared ``--log-level`` flag, attached to every sub-command.

    An argparse *parent* parser is the only way a flag can legally appear
    after the sub-command name (``repro run fig6-smoke --log-level info``).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="warning",
        help="stderr diagnostics verbosity (default: warning)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Almost Optimal Channel Access "
        "in Multi-Hop Networks With Unknown Channel Variables' (ICDCS 2014).",
    )
    logging_parent = _logging_parent()
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        parents=[logging_parent],
        help="run a registered scenario (or a JSON spec file)",
    )
    run.add_argument(
        "scenario",
        help="registered scenario name (see `repro list`) or path to a "
        "JSON spec file",
    )
    run.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a spec field by dotted path "
        "(e.g. --set schedule.num_rounds=200 --set policies.0.r=1)",
    )
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the result envelope as JSON to PATH ('-' prints JSON "
        "instead of the text report)",
    )
    run.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record a repro.trace/v1 JSONL span/metrics trace of the run "
        "to PATH (inspect with `repro trace summarize PATH`)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        parents=[logging_parent],
        help="run a parameter sweep (grid of scenarios) with a cached "
        "results store",
    )
    sweep.add_argument(
        "target",
        nargs="?",
        default=None,
        help="built-in sweep plan name (see --list-plans), registered "
        "scenario name, or path to a JSON spec file",
    )
    sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        dest="grid",
        metavar="PATH=V1,V2,...",
        help="sweep a spec field over values by dotted path (repeatable; "
        "e.g. --grid topology.num_vertices=10,20,40)",
    )
    sweep.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a base-spec field before the grid is applied",
    )
    sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    sweep.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="serial",
        help="execution backend for the work units (process = true multicore)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1, help="worker count for the chosen backend"
    )
    sweep.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="content-addressed results store directory (default: .repro-store)",
    )
    sweep.add_argument(
        "--no-store",
        action="store_true",
        help="run without persistence (every unit recomputes)",
    )
    sweep.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the sweep envelope (repro.sweep-result/v1) to PATH "
        "('-' prints JSON instead of the text report)",
    )
    sweep.add_argument(
        "--stats-json",
        dest="stats_json_path",
        default=None,
        metavar="PATH",
        help="write machine-readable run statistics (computed/cached unit "
        "counts) to PATH",
    )
    sweep.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record a repro.trace/v1 JSONL span/metrics trace of the sweep "
        "to PATH (inspect with `repro trace summarize PATH`)",
    )
    sweep.add_argument(
        "--summarize",
        action="store_true",
        help="without a target: summarize the store contents; with a "
        "target: show the plan's cache status without running anything",
    )
    sweep.add_argument(
        "--list-plans",
        action="store_true",
        help="list the built-in sweep plans and exit",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect recorded repro.trace/v1 traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        parents=[logging_parent],
        help="aggregate a trace file into span/counter/histogram tables",
    )
    trace_summarize.add_argument(
        "trace_file", help="path to a repro.trace/v1 JSONL file"
    )

    list_cmd = subparsers.add_parser(
        "list", parents=[logging_parent], help="list the registered scenarios"
    )
    list_cmd.add_argument(
        "--mode",
        choices=("per-round", "periodic", "protocol", "dynamic"),
        default=None,
        help="only show scenarios of one schedule mode ('dynamic' selects "
        "per-round scenarios with topology dynamics attached)",
    )

    show = subparsers.add_parser(
        "show", parents=[logging_parent], help="print a scenario's JSON spec"
    )
    show.add_argument("scenario", help="registered scenario name")

    subparsers.add_parser(
        "table2",
        parents=[logging_parent],
        help="Table II: round timing parameters",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[logging_parent],
        help="serve cached scenario/sweep results over HTTP (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8737,
        help="bind port (default: 8737; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="content-addressed results store directory (default: .repro-store)",
    )
    serve.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="process",
        help="worker pool executing cache misses (default: process)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, help="worker pool size (default: 2)"
    )
    serve.add_argument(
        "--max-inflight-jobs",
        type=int,
        default=8,
        help="per-client cap on simultaneously computing jobs (0 disables)",
    )
    serve.add_argument(
        "--units-per-minute",
        type=int,
        default=3000,
        help="per-client computed-unit budget per minute (0 disables)",
    )
    serve.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record a repro.trace/v1 trace of the server's spans/metrics "
        "to PATH on shutdown",
    )
    serve.add_argument(
        "--stats-json",
        dest="stats_json_path",
        default=None,
        metavar="PATH",
        help="write the final repro.serve-stats/v1 snapshot to PATH on shutdown",
    )

    submit = subparsers.add_parser(
        "submit",
        parents=[logging_parent],
        help="submit a scenario or sweep to a running `repro serve` instance",
    )
    submit.add_argument(
        "target",
        help="registered scenario name, JSON spec file, or built-in sweep "
        "plan name (plans submit as sweeps)",
    )
    submit.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override a spec field by dotted path before submitting",
    )
    submit.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    submit.add_argument(
        "--grid",
        action="append",
        default=[],
        dest="grid",
        metavar="PATH=V1,V2,...",
        help="submit a sweep of the target over these axes (repeatable)",
    )
    submit.add_argument("--host", default="127.0.0.1", help="server address (default: 127.0.0.1)")
    submit.add_argument("--port", type=int, default=8737, help="server port (default: 8737)")
    submit.add_argument(
        "--token",
        default=None,
        help="API token identifying this client to the server's quotas",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="follow the job's progress stream until it finishes",
    )
    submit.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the served result envelope to PATH ('-' prints it); "
        "implies --wait",
    )

    store_cmd = subparsers.add_parser(
        "store", help="inspect and maintain the content-addressed results store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    verify = store_sub.add_parser(
        "verify",
        parents=[logging_parent],
        help="audit every stored object (reparse, re-hash, validate)",
    )
    verify.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="store directory to audit (default: .repro-store)",
    )
    verify.add_argument(
        "--heal",
        action="store_true",
        help="delete corrupt and orphaned files (units recompute on demand)",
    )
    verify.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the repro.store-audit/v1 report to PATH ('-' prints it)",
    )
    return parser


def _load_spec(reference: str, args) -> ScenarioSpec:
    """Resolve a scenario target and apply its ``--set`` / ``--seed`` flags.

    ``reference`` is a registry name or a JSON spec file; shared by ``run``,
    ``sweep`` and ``submit``.  A ``--seed`` that contradicts ``--set seed``
    is rejected rather than silently winning.
    """
    if reference.endswith(".json") or "/" in reference:
        path = pathlib.Path(reference)
        if not path.is_file():
            raise SpecError(
                f"spec file {reference!r} does not exist (registered "
                f"scenarios: {', '.join(default_registry().names())})"
            )
        try:
            data = loads(path.read_bytes(), f"spec file {reference!r}")
        except DecodeError as err:
            raise SpecError(str(err)) from None
        spec = ScenarioSpec.from_dict(data, path=reference)
    else:
        spec = get_scenario(reference)
    overrides = parse_set_items(args.overrides)
    if args.seed is not None:
        if "seed" in overrides and overrides["seed"] != args.seed:
            raise SpecError(
                f"conflicting seeds: --seed {args.seed} vs "
                f"--set seed={overrides['seed']}; give only one"
            )
        overrides["seed"] = args.seed
    return apply_overrides(spec, overrides)


def _traced(callable_, trace_path, scenario):
    """Run ``callable_`` under a tracing observer when ``trace_path`` is set.

    With no trace path the callable runs under the default no-op observer,
    so the untraced path stays exactly as fast (and as deterministic) as it
    was before observability existed.
    """
    if trace_path is None:
        return callable_()
    observer = TracingObserver()
    with use_observer(observer):
        outcome = callable_()
    write_trace(trace_path, observer, scenario=scenario)
    _LOG.info(
        "wrote trace (%d spans) to %s", len(observer.spans()), trace_path
    )
    return outcome


def _run_scenario_command(args) -> str:
    spec = _load_spec(args.scenario, args)
    _LOG.info("running scenario %s", spec.name)
    result = _traced(lambda: run_scenario(spec), args.trace_path, spec.name)
    _LOG.info(
        "scenario %s finished in %.2fs", spec.name, result.wall_clock_s
    )
    if args.json_path == "-":
        return result.to_json()
    if args.json_path is not None:
        pathlib.Path(args.json_path).write_text(result.to_json() + "\n")
        _LOG.info("wrote result envelope to %s", args.json_path)
    return format_result(result)


def _resolve_sweep_plan(args):
    """Build the sweep plan a ``repro sweep`` invocation describes."""
    from repro.sweep import SweepPlan, builtin_plans, get_plan, parse_grid_items

    if args.target in builtin_plans():
        if args.grid or args.overrides or args.seed is not None:
            raise SpecError(
                f"sweep plan {args.target!r} is a built-in preset; "
                "--grid/--set/--seed only apply when sweeping a scenario"
            )
        return get_plan(args.target)
    base = _load_spec(args.target, args)
    return SweepPlan.from_grid(
        f"{base.name}-sweep", base, parse_grid_items(args.grid)
    )


def _sweep_status(plan, store) -> str:
    """Cache status of a plan against a store, without running anything."""
    from repro.reporting import render_table
    from repro.sweep import plan_units

    rows = []
    total_cached = total_units = 0
    for point in plan.points():
        units = plan_units(point)
        cached = sum(1 for unit in units if unit.hash in store)
        total_cached += cached
        total_units += len(units)
        rows.append(
            [
                point.index,
                point.label,
                f"{cached}/{len(units)}",
                "complete" if cached == len(units) else "pending",
                point.hash[:12],
            ]
        )
    header = (
        f"sweep {plan.name} against {store.root}: "
        f"{total_cached}/{total_units} unit(s) cached"
    )
    table = render_table(
        ["point", "overrides", "cached", "status", "spec hash"], rows
    )
    return header + "\n\n" + table


def _list_plans_text() -> str:
    from repro.reporting import render_table
    from repro.sweep import builtin_plans

    rows = [
        [plan.name, plan.num_points, plan.description]
        for plan in builtin_plans().values()
    ]
    return render_table(["plan", "points", "description"], sorted(rows))


def _run_sweep_command(args) -> str:
    from repro.sweep import ResultStore, format_store_summary, format_sweep, run_sweep

    if args.list_plans:
        return _list_plans_text()
    store = None if args.no_store else ResultStore(args.store)
    if args.target is None:
        if not args.summarize:
            raise SpecError(
                "sweep: give a scenario/plan to run, --summarize to inspect "
                "the store, or --list-plans"
            )
        if store is None:
            raise SpecError("sweep: --summarize needs a store (drop --no-store)")
        return format_store_summary(store)
    plan = _resolve_sweep_plan(args)
    if args.summarize:
        if store is None:
            raise SpecError("sweep: --summarize needs a store (drop --no-store)")
        return _sweep_status(plan, store)
    _LOG.info(
        "running sweep %s (%d point(s), backend=%s, jobs=%d)",
        plan.name, plan.num_points, args.backend, args.jobs,
    )
    try:
        sweep = _traced(
            lambda: run_sweep(
                plan, store=store, backend=args.backend, jobs=args.jobs
            ),
            args.trace_path,
            plan.name,
        )
    except ValueError as err:
        # Backend/jobs validation errors are user errors, not crashes.
        raise SpecError(str(err)) from None
    _LOG.info(
        "sweep %s: %d computed, %d cached",
        plan.name, sweep.computed_units, sweep.cached_units,
    )
    if args.stats_json_path is not None:
        pathlib.Path(args.stats_json_path).write_text(
            json.dumps(sweep.stats(), indent=2) + "\n"
        )
        _LOG.info("wrote sweep statistics to %s", args.stats_json_path)
    if args.json_path == "-":
        return json.dumps(sweep.to_dict(), indent=2)
    if args.json_path is not None:
        pathlib.Path(args.json_path).write_text(
            json.dumps(sweep.to_dict(), indent=2) + "\n"
        )
    return format_sweep(sweep)


def _list_scenarios_command(args) -> str:
    from repro.reporting import render_table

    wanted = getattr(args, "mode", None)
    registry = default_registry()
    rows = []
    for name in registry.names():
        spec = registry.get(name)
        topology = (
            f"{spec.topology.num_nodes}x{spec.topology.num_channels}"
            if not spec.network_sweep
            else ", ".join(f"{n}x{m}" for n, m in spec.network_sweep)
        )
        mode = spec.schedule.mode
        if spec.dynamics is not None:
            mode = f"dynamic/{spec.dynamics.kind}"
        if wanted is not None:
            matches = (
                mode.startswith("dynamic/")
                if wanted == "dynamic"
                else mode == wanted
            )
            if not matches:
                continue
        # Protocol scenarios are the only ones wired to the faults /
        # non-simulated transport nodes, so `--set faults.*` and
        # `--set transport.*` overrides only land there.
        accepts = "faults,transport" if spec.schedule.mode == "protocol" else "-"
        rows.append([name, mode, topology, accepts, spec.description])
    return render_table(
        ["scenario", "mode", "networks", "accepts", "description"], rows
    )


def _show_scenario_command(args) -> str:
    return json.dumps(get_scenario(args.scenario).to_dict(), indent=2)


def _trace_command(args) -> str:
    if args.trace_command != "summarize":  # pragma: no cover - argparse gates
        raise SpecError(f"unknown trace sub-command {args.trace_command!r}")
    try:
        return summarize_trace_file(args.trace_file)
    except FileNotFoundError:
        raise SpecError(f"trace file {args.trace_file!r} does not exist") from None
    except TraceError as err:
        raise SpecError(f"trace: {err}") from None


def _serve_command(args) -> str:
    import asyncio
    import signal

    from repro.serve import QuotaConfig, ReproServer, ResultService, ServiceConfig

    config = ServiceConfig(
        store=args.store,
        backend=args.backend,
        jobs=args.jobs,
        quota=QuotaConfig(
            max_inflight_jobs=args.max_inflight_jobs,
            units_per_minute=args.units_per_minute,
        ),
    )
    observer = TracingObserver() if args.trace_path is not None else None
    service = ResultService(config, observer=observer)

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        server = ReproServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(store {args.store}, backend {args.backend} x{args.jobs}) -- "
            "Ctrl-C drains and exits",
            file=sys.stderr,
            flush=True,
        )
        await shutdown.wait()
        print("repro serve: draining...", file=sys.stderr, flush=True)
        await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - second Ctrl-C
        pass
    stats = service.stats()
    if args.stats_json_path is not None:
        pathlib.Path(args.stats_json_path).write_text(
            json.dumps(stats, indent=2) + "\n"
        )
        _LOG.info("wrote serve statistics to %s", args.stats_json_path)
    if args.trace_path is not None:
        write_trace(args.trace_path, observer, scenario="serve")
        _LOG.info(
            "wrote trace (%d spans) to %s", len(observer.spans()), args.trace_path
        )
    counters = stats["counters"]
    return (
        f"serve: {int(counters.get('serve.requests', 0))} request(s), "
        f"{int(counters.get('serve.jobs.submitted', 0))} job(s), "
        f"{int(counters.get('serve.units.cache_hit', 0))} cached / "
        f"{int(counters.get('serve.units.computed', 0))} computed unit(s)"
    )


def _submit_payload(args):
    """Build the submission: ``("run"|"sweep", payload)``."""
    from repro.sweep import builtin_plans, parse_grid_items

    if args.target in builtin_plans():
        if args.grid or args.overrides or args.seed is not None:
            raise SpecError(
                f"submit: sweep plan {args.target!r} is a built-in preset; "
                "--grid/--set/--seed only apply when submitting a scenario"
            )
        return "sweep", {"plan": args.target}
    spec = _load_spec(args.target, args)
    if args.grid:
        grid = {
            path: list(values)
            for path, values in parse_grid_items(args.grid).items()
        }
        return "sweep", {
            "base": spec.to_dict(),
            "grid": grid,
            "name": f"{spec.name}-sweep",
        }
    return "run", {"spec": spec.to_dict()}


def _format_job(descriptor, base_url: str) -> str:
    lines = [
        f"job {descriptor['id']} ({descriptor['kind']} {descriptor['name']}): "
        f"{descriptor['state']}",
        f"  units: {descriptor['total_units']} total, "
        f"{descriptor['cached_units']} cached, "
        f"{descriptor['computed_units']} computed",
        f"  result: {base_url}/v1/jobs/{descriptor['id']}/result",
    ]
    if descriptor.get("error"):
        lines.insert(1, f"  error: {descriptor['error']}")
    return "\n".join(lines)


def _submit_command(args) -> str:
    from repro.serve import ServeClient, ServeError

    kind, payload = _submit_payload(args)
    wait = args.wait or args.json_path is not None
    client = ServeClient(args.host, args.port, token=args.token)
    try:
        if kind == "run":
            response = client.submit_run(payload["spec"])
        else:
            response = client.submit_sweep(payload)
        descriptor = response["job"]
        _LOG.info(
            "submitted job %s (%s, state %s)",
            descriptor["id"], kind, descriptor["state"],
        )
        if wait and descriptor["state"] not in ("done", "failed"):
            for name, event in client.events(descriptor["id"]):
                if name == "progress":
                    _LOG.info(
                        "job %s: %s/%s unit(s)",
                        descriptor["id"],
                        event.get("completed_units"),
                        event.get("total_units"),
                    )
            descriptor = client.job(descriptor["id"])
        if descriptor["state"] == "failed":
            raise SpecError(
                f"submit: job {descriptor['id']} failed: {descriptor['error']}"
            )
        if args.json_path is not None:
            envelope = client.result_bytes(descriptor["id"])
            if args.json_path == "-":
                text = envelope.decode("utf-8")
                # ``print`` re-adds the newline: stdout stays byte-identical
                # to ``repro run --json -``.
                return text[:-1] if text.endswith("\n") else text
            pathlib.Path(args.json_path).write_bytes(envelope)
            _LOG.info("wrote result envelope to %s", args.json_path)
    except ServeError as err:
        raise SpecError(f"submit: {err}") from None
    except ConnectionError as err:
        raise SpecError(
            f"submit: cannot reach server at {args.host}:{args.port} ({err}); "
            "is `repro serve` running?"
        ) from None
    return _format_job(descriptor, f"http://{args.host}:{args.port}")


def _store_verify_command(args) -> str:
    from repro.reporting import render_table
    from repro.sweep import ResultStore

    store = ResultStore(args.store)
    report = store.audit(heal=args.heal)
    if args.json_path is not None and args.json_path != "-":
        pathlib.Path(args.json_path).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        _LOG.info("wrote audit report to %s", args.json_path)
    if args.json_path == "-":
        return json.dumps(report.to_dict(), indent=2)
    lines = [
        f"store {report.root}: {report.checked} file(s) checked, "
        f"{report.valid} valid, {len(report.corrupt)} corrupt, "
        f"{len(report.orphans)} orphaned"
    ]
    if report.issues:
        rows = [
            [issue.kind, issue.path, "yes" if issue.healed else "no", issue.detail]
            for issue in report.issues
        ]
        lines.append("")
        lines.append(render_table(["kind", "path", "healed", "detail"], rows))
    if report.ok:
        lines.append("store is clean")
    elif report.healed:
        lines.append("issues healed; affected units recompute on next request")
    text = "\n".join(lines)
    if not report.ok and not report.healed:
        # Report-only mode found problems: non-zero exit for scripting.
        raise SystemExit(text)
    return text


def _store_command(args) -> str:
    if args.store_command != "verify":  # pragma: no cover - argparse gates
        raise SpecError(f"unknown store sub-command {args.store_command!r}")
    return _store_verify_command(args)


def _configure_logging(level_name: str) -> None:
    """Send diagnostics to stderr at the requested level.

    ``force=True`` rebinds the root handlers on every invocation so repeated
    in-process ``main()`` calls (tests, notebooks) honour the latest flag.
    """
    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one sub-command and print its report."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    _configure_logging(getattr(args, "log_level", "warning"))
    handlers = {
        "run": _run_scenario_command,
        "sweep": _run_sweep_command,
        "trace": _trace_command,
        "list": _list_scenarios_command,
        "show": _show_scenario_command,
        "table2": lambda _args: format_table2(),
        "serve": _serve_command,
        "submit": _submit_command,
        "store": _store_command,
    }
    try:
        output = handlers[args.command](args)
    except SpecError as err:
        raise SystemExit(f"repro: {err}") from None
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
