"""Validity checks for the CI pipeline and packaging metadata.

The workflow must stay parseable YAML with the jobs and commands the project
relies on; ``pyproject.toml`` must keep the pytest path configuration that
makes ``pip install -e .`` + ``pytest`` work without PYTHONPATH tricks.
"""

import json
import pathlib
import sys

import yaml

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
PYPROJECT = REPO_ROOT / "pyproject.toml"

if sys.version_info >= (3, 11):
    import tomllib
else:  # pragma: no cover - exercised on the 3.10 CI leg
    tomllib = None


def _load_workflow():
    return yaml.safe_load(WORKFLOW.read_text())


class TestWorkflow:
    def test_workflow_parses_and_has_a_name(self):
        workflow = _load_workflow()
        assert workflow["name"] == "CI"

    def test_triggers_cover_push_and_pull_request(self):
        workflow = _load_workflow()
        # PyYAML resolves the bare `on` key to boolean True (YAML 1.1).
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers
        assert "pull_request" in triggers

    def test_expected_jobs_present(self):
        jobs = _load_workflow()["jobs"]
        assert set(jobs) == {
            "lint",
            "tests",
            "benchmark-smoke",
            "benchmark-trend",
            "sweep-smoke",
            "dynamics-smoke",
            "transport-smoke",
            "scale-smoke",
            "obs-smoke",
            "serve-smoke",
            "docs",
        }

    def test_concurrency_cancels_in_progress_runs(self):
        workflow = _load_workflow()
        concurrency = workflow["concurrency"]
        assert concurrency["cancel-in-progress"] is True
        assert "github.ref" in concurrency["group"]

    def test_lint_job_runs_ruff(self):
        lint = _load_workflow()["jobs"]["lint"]
        commands = [step.get("run", "") for step in lint["steps"]]
        assert any(command.startswith("ruff check") for command in commands)

    def test_lint_job_checks_formatting(self):
        lint = _load_workflow()["jobs"]["lint"]
        commands = [step.get("run", "") for step in lint["steps"]]
        assert any("ruff format --check" in command for command in commands)

    def test_test_matrix_covers_supported_python_versions(self):
        tests = _load_workflow()["jobs"]["tests"]
        assert tests["strategy"]["matrix"]["python-version"] == [
            "3.10",
            "3.12",
            "3.13",
        ]
        commands = [step.get("run", "") for step in tests["steps"]]
        assert any("pytest" in command for command in commands)

    def test_benchmark_smoke_disables_benchmarking(self):
        smoke = _load_workflow()["jobs"]["benchmark-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "pytest benchmarks" in command and "--benchmark-disable" in command
            for command in commands
        )

    def test_benchmark_trend_records_and_gates_the_trajectory(self):
        trend = _load_workflow()["jobs"]["benchmark-trend"]
        commands = [step.get("run", "") for step in trend["steps"]]
        assert any(
            "pytest benchmarks" in command and "--benchmark-json" in command
            for command in commands
        ), "benchmark-trend must record real benchmark timings"
        assert any(
            "repro.benchtrend normalize" in command and "BENCH_" in command
            for command in commands
        ), "benchmark-trend must normalize into the BENCH_<sha>.json schema"
        assert any(
            "repro.benchtrend check" in command
            and "benchmarks/baseline.json" in command
            and "--max-ratio 2.0" in command
            for command in commands
        ), "benchmark-trend must gate against the committed baseline at 2x"
        uploads = [step for step in trend["steps"] if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_*.json", (
            "benchmark-trend must upload the BENCH_*.json artifact"
        )

    def test_benchmark_trend_baseline_is_committed(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "baseline.json").read_text()
        )
        assert baseline["schema"] == "repro.bench-trend/v1"
        groups = {record["group"] for record in baseline["benchmarks"]}
        # The gated benchmark groups must exist in the baseline.
        assert {"solvers", "policies", "macro", "obs", "serve"} <= groups

    def test_macro_baseline_covers_both_scales(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "baseline.json").read_text()
        )
        names = {
            record["name"]
            for record in baseline["benchmarks"]
            if record["group"] == "macro"
        }
        assert any("10k" in name for name in names), names
        assert any("100k" in name for name in names), names

    def test_scale_smoke_gates_the_macro_group(self):
        smoke = _load_workflow()["jobs"]["scale-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "pytest benchmarks/test_bench_macro.py" in command
            and "--benchmark-json" in command
            for command in commands
        ), "scale-smoke must record macro benchmark timings"
        assert any(
            "repro.benchtrend check" in command
            and "benchmarks/baseline.json" in command
            and "--group macro" in command
            and "--max-ratio 2.0" in command
            for command in commands
        ), "scale-smoke must gate the macro group against the baseline at 2x"

    def test_obs_smoke_traces_both_transports_and_diffs_envelopes(self):
        smoke = _load_workflow()["jobs"]["obs-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "repro run fig6-smoke" in command
            and "--trace" in command
            and "transport.kind=asyncio" in command
            for command in commands
        ), "obs-smoke must record a trace over the asyncio transport"
        assert any(
            "read_trace" in command for command in commands
        ), "obs-smoke must validate the trace files against repro.trace/v1"
        assert any(
            "tracing changed the result envelope" in command
            for command in commands
        ), "obs-smoke must diff traced envelopes against untraced twins"
        assert any(
            "repro trace summarize" in command for command in commands
        ), "obs-smoke must render the recorded trace"

    def test_benchmark_trend_gates_the_obs_group(self):
        trend = _load_workflow()["jobs"]["benchmark-trend"]
        commands = [step.get("run", "") for step in trend["steps"]]
        assert any(
            "repro.benchtrend check" in command and "--group obs" in command
            for command in commands
        ), "benchmark-trend must gate the observability microbenchmarks"

    def test_benchmark_trend_gates_the_serve_group(self):
        trend = _load_workflow()["jobs"]["benchmark-trend"]
        commands = [step.get("run", "") for step in trend["steps"]]
        assert any(
            "repro.benchtrend check" in command and "--group serve" in command
            for command in commands
        ), "benchmark-trend must gate the serving-layer benchmarks"

    def test_serve_smoke_diffs_replays_streams_and_drains(self):
        smoke = _load_workflow()["jobs"]["serve-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "repro serve" in command and "--trace" in command
            for command in commands
        ), "serve-smoke must start a traced server"
        assert any(
            "repro submit fig6-smoke" in command
            and "served envelope differs" in command
            for command in commands
        ), "serve-smoke must diff the served envelope against repro run"
        assert any(
            'counters["serve.units.computed"] == 1' in command
            for command in commands
        ), "serve-smoke must assert the resubmission did zero new work"
        assert any(
            "/events" in command and "event: done" in command
            for command in commands
        ), "serve-smoke must exercise one SSE streaming request"
        assert any(
            "kill -INT" in command and "read_trace" in command
            for command in commands
        ), "serve-smoke must drain gracefully and validate the server trace"

    def test_docs_job_runs_docscheck(self):
        docs = _load_workflow()["jobs"]["docs"]
        commands = [step.get("run", "") for step in docs["steps"]]
        assert any(
            "repro.docscheck" in command for command in commands
        ), "docs job must run the markdown checker"

    def test_sweep_smoke_runs_process_backend_and_asserts_cache_hits(self):
        smoke = _load_workflow()["jobs"]["sweep-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "repro sweep fig7-smoke" in command
            and "--backend process" in command
            and "replication.replications=1,2" in command
            for command in commands
        ), "sweep-smoke must run the 2-point sweep on the process backend"
        assert any(
            "plan_units" in command and "expected" in command
            for command in commands
        ), "sweep-smoke must assert the store holds the planned unit hashes"
        assert any(
            'stats["computed"] == 0' in command for command in commands
        ), "sweep-smoke must assert the re-run is served 100% from the store"

    def test_transport_smoke_diffs_both_transports_and_runs_lossy(self):
        smoke = _load_workflow()["jobs"]["transport-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "repro run fig6-smoke" in command
            and "transport.kind=asyncio" not in command
            for command in commands
        ), "transport-smoke must run fig6-smoke on the simulated transport"
        assert any(
            "repro run fig6-smoke" in command
            and "transport.kind=asyncio" in command
            and "transport.drop" not in command
            for command in commands
        ), "transport-smoke must run fig6-smoke on the lossless asyncio transport"
        assert any(
            "simulated == asyncio_run" in command for command in commands
        ), "transport-smoke must diff the two result envelopes"
        assert any(
            "transport.drop" in command and "transport.kind=asyncio" in command
            for command in commands
        ), "transport-smoke must run a seeded lossy asyncio scenario"

    def test_dynamics_smoke_runs_churn_and_dedups_the_sweep(self):
        smoke = _load_workflow()["jobs"]["dynamics-smoke"]
        commands = [step.get("run", "") for step in smoke["steps"]]
        assert any(
            "repro run churn-quick" in command and "--json" in command
            for command in commands
        ), "dynamics-smoke must run the churn scenario end-to-end"
        assert any(
            'result.mode == "dynamic"' in command
            and "avg_reconvergence_mini_rounds" in command
            for command in commands
        ), "dynamics-smoke must validate the dynamic result envelope"
        assert any(
            "repro sweep churn-rate-sweep" in command
            and "--backend process" in command
            for command in commands
        ), "dynamics-smoke must run the churn-rate sweep on the process backend"
        assert any(
            'second["computed"] == 0' in command for command in commands
        ), "dynamics-smoke must assert the sweep re-run dedups against the store"

    def test_jobs_cache_pip_against_pyproject(self):
        jobs = _load_workflow()["jobs"]
        for job in jobs.values():
            setup_steps = [
                step
                for step in job["steps"]
                if "setup-python" in step.get("uses", "")
            ]
            assert setup_steps, "every job must set up python"
            for step in setup_steps:
                assert step["with"]["cache"] == "pip"
                assert step["with"]["cache-dependency-path"] == "pyproject.toml"


class TestPyproject:
    def test_pyproject_exists_as_setup_py_promises(self):
        assert PYPROJECT.is_file()

    def test_pytest_pythonpath_configured(self):
        if tomllib is None:
            text = PYPROJECT.read_text()
            assert 'pythonpath = ["src"]' in text
            return
        config = tomllib.loads(PYPROJECT.read_text())
        assert config["tool"]["pytest"]["ini_options"]["pythonpath"] == ["src"]

    def test_ruff_configuration_committed(self):
        if tomllib is None:
            assert "[tool.ruff]" in PYPROJECT.read_text()
            return
        config = tomllib.loads(PYPROJECT.read_text())
        assert "ruff" in config["tool"]
