"""Validity checks for the CI pipeline and packaging metadata.

The workflow must stay parseable YAML with the three jobs the project relies
on (lint, the tier-1 tests, the benchmark trend gate); ``pyproject.toml``
must keep the pytest path configuration that makes ``pip install -e .`` +
``pytest`` work without PYTHONPATH tricks.
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


def _load_baseline():
    return json.loads((REPO_ROOT / "benchmarks" / "baseline.json").read_text())


def _trend_commands():
    trend = _load_workflow()["jobs"]["benchmark-trend"]
    return [step.get("run", "") for step in trend["steps"]]


def _gated_groups(commands):
    (gate,) = [command for command in commands if "repro.benchtrend check" in command]
    tokens = gate.split()
    return {tokens[i + 1] for i, token in enumerate(tokens) if token == "--group"}


GATED_GROUPS = {"solvers", "policies", "obs", "serve", "macro"}


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
        # Every end-to-end contract is a tier-1 test that the `tests` job
        # runs; the workflow restates none of them.
        jobs = _load_workflow()["jobs"]
        assert set(jobs) == {"lint", "tests", "benchmark-trend"}

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

    def test_benchmark_trend_records_and_gates_the_trajectory(self):
        trend = _load_workflow()["jobs"]["benchmark-trend"]
        commands = _trend_commands()
        assert any(
            "pytest benchmarks" in command and "--benchmark-json" in command
            for command in commands
        ), "benchmark-trend must record real benchmark timings"
        assert any(
            "repro.benchtrend normalize" in command and "BENCH_" in command
            for command in commands
        ), "benchmark-trend must normalize into the BENCH_<sha>.json schema"
        uploads = [step for step in trend["steps"] if "upload-artifact" in step.get("uses", "")]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_*.json", (
            "benchmark-trend must upload the BENCH_*.json artifact"
        )
        (gate,) = [command for command in commands if "repro.benchtrend check" in command]
        assert "--baseline benchmarks/baseline.json" in gate
        assert "--max-ratio 2.0" in gate
        assert _gated_groups(commands) == GATED_GROUPS

    def test_benchmark_trend_baseline_is_committed(self):
        baseline = _load_baseline()
        assert baseline["schema"] == "repro.bench-trend/v1"
        groups = {record["group"] for record in baseline["benchmarks"]}
        # The gated benchmark groups must exist in the baseline.
        assert GATED_GROUPS <= groups

    def test_macro_baseline_covers_both_scales(self):
        names = {
            record["name"]
            for record in _load_baseline()["benchmarks"]
            if record["group"] == "macro"
        }
        assert any("10k" in name for name in names), names
        assert any("100k" in name for name in names), names

    def test_scale_smoke_gates_the_macro_group(self):
        # The macro benchmarks are recorded and gated by benchmark-trend.
        commands = _trend_commands()
        assert any(
            "pytest benchmarks" in command and "--benchmark-json" in command
            for command in commands
        ), "benchmark-trend must record the macro benchmark timings"
        assert "macro" in _gated_groups(commands), (
            "benchmark-trend must gate the macro group against the baseline"
        )

    def test_benchmark_trend_gates_the_obs_group(self):
        assert "obs" in _gated_groups(_trend_commands()), (
            "benchmark-trend must gate the observability microbenchmarks"
        )

    def test_benchmark_trend_gates_the_serve_group(self):
        assert "serve" in _gated_groups(_trend_commands()), (
            "benchmark-trend must gate the serving-layer benchmarks"
        )

    def test_benchmark_trend_checks_perfbench_correctness(self):
        (check,) = [
            command for command in _trend_commands() if "perfbench/run.py" in command
        ]
        assert "--workload all --trace 1" in check
        assert '["correct"] is True' in check

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
