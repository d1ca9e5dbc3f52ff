"""CLI verbs of the serve subsystem: ``serve``, ``submit``, ``store verify``."""

import json
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import read_trace
from repro.serve import ServeClient, ServerThread, ServiceConfig
from repro.spec import get_scenario, run_scenario
from repro.sweep import ResultStore, run_sweep
from repro.sweep.plan import SweepPlan

SHRINK = ["--set", "schedule.num_rounds=5", "--set", "replication.replications=1"]


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(store=str(tmp_path / "store"), backend="thread", jobs=2)
    with ServerThread(config) as srv:
        yield srv


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8737
        assert args.backend == "process"
        assert args.jobs == 2

    def test_submit_options(self):
        args = build_parser().parse_args(
            ["submit", "fig7-smoke", "--grid", "seed=1,2", "--wait", "--json", "-"]
        )
        assert args.target == "fig7-smoke"
        assert args.grid == ["seed=1,2"]
        assert args.json_path == "-"

    def test_store_verify_options(self):
        args = build_parser().parse_args(
            ["store", "verify", "--store", "x", "--heal"]
        )
        assert args.store_command == "verify"
        assert args.heal is True


class TestSubmit:
    def test_submit_json_matches_run_json(self, server, capsys):
        """``submit --json -`` writes the same bytes as ``run --json -``."""
        argv = ["fig7-smoke", *SHRINK, "--json", "-"]
        assert main(["run", *argv]) == 0
        direct = capsys.readouterr().out
        assert (
            main(["submit", *argv, "--port", str(server.port)]) == 0
        )
        served = capsys.readouterr().out

        def stable(text):
            return [line for line in text.splitlines() if "wall_clock" not in line]

        assert stable(served) == stable(direct)
        # Resubmitting is a pure cache replay of the exact same bytes.
        assert main(["submit", *argv, "--port", str(server.port)]) == 0
        assert capsys.readouterr().out == served

    def test_submit_wait_prints_descriptor(self, server, capsys):
        argv = ["submit", "fig7-smoke", *SHRINK, "--wait", "--port", str(server.port)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "done" in output
        assert "1 computed" in output

    def test_submit_grid_runs_a_sweep(self, server, capsys):
        argv = [
            "submit", "fig7-smoke", *SHRINK, "--grid", "seed=3,4",
            "--wait", "--port", str(server.port),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "sweep" in output
        assert "2 computed" in output

    def test_builtin_plan_rejects_scenario_flags(self, server):
        argv = [
            "submit", "byzantine-sweep", "--grid", "seed=1,2",
            "--port", str(server.port),
        ]
        with pytest.raises(SystemExit, match="built-in preset"):
            main(argv)

    def test_unreachable_server_is_a_clean_error(self, tmp_path):
        argv = ["submit", "fig7-smoke", *SHRINK, "--port", "1"]
        with pytest.raises(SystemExit, match="is `repro serve` running"):
            main(argv)


def _await_listening_port(proc, timeout=60.0):
    """Read the child's stderr up to the ``listening on`` line; return the port."""
    deadline = time.monotonic() + timeout
    fd = proc.stderr.fileno()
    seen = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.5)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        seen += chunk
        match = re.search(rb"listening on http://[^:]+:(\d+)", seen)
        if match:
            return int(match.group(1))
    raise AssertionError(f"server never reported its port: {seen!r}")


class TestServeProcess:
    def test_serve_submit_replay_and_sigint_drain(self, tmp_path):
        """A real ``repro serve`` process serves, replays, drains and reports."""
        stats_path = tmp_path / "serve-stats.json"
        trace_path = tmp_path / "serve-trace.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--store", str(tmp_path / "store"),
                "--backend", "process", "--jobs", "2",
                "--stats-json", str(stats_path), "--trace", str(trace_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = _await_listening_port(proc)
            served_path = tmp_path / "served.json"
            argv = ["submit", "fig6-smoke", "--port", str(port)]
            assert main([*argv, "--json", str(served_path)]) == 0
            served = json.loads(served_path.read_text())
            direct = json.loads(run_scenario(get_scenario("fig6-smoke")).to_json())
            for envelope in (served, direct):
                envelope.pop("wall_clock_s")
            assert served == direct

            assert main([*argv, "--wait"]) == 0
            counters = ServeClient(port=port).stats()["counters"]
            assert counters["serve.units.computed"] == 1
            assert counters["serve.jobs.replayed"] >= 1

            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        stats = json.loads(stats_path.read_text())
        assert stats["schema"] == "repro.serve-stats/v1"
        assert stats["counters"]["serve.units.computed"] == 1
        names = {span.name for span in read_trace(trace_path).spans}
        assert {"serve.request", "serve.job"} <= names


class TestStoreVerify:
    def _seed_store(self, tmp_path):
        from repro.spec import apply_overrides, get_scenario

        base = apply_overrides(
            get_scenario("fig7-smoke"),
            {"schedule.num_rounds": 5, "replication.replications": 1},
        )
        plan = SweepPlan.from_grid("seeded", base, {"seed": [1, 2]})
        run_sweep(plan, store=str(tmp_path / "store"))
        return ResultStore(tmp_path / "store")

    def test_clean_store_passes(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert main(["store", "verify", "--store", str(store.root)]) == 0
        output = capsys.readouterr().out
        assert "store is clean" in output
        assert "2 valid" in output

    def test_corruption_reports_and_exits_nonzero(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        victim = store.path_for(store.hashes()[0])
        victim.write_text(victim.read_text()[:25])
        (store.root / "objects" / "notes.txt").write_text("stray\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "verify", "--store", str(store.root)])
        text = str(excinfo.value)
        assert "1 corrupt" in text
        assert "1 orphaned" in text

    def test_heal_prunes_and_next_verify_is_clean(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        victim = store.path_for(store.hashes()[0])
        victim.write_text("{")
        assert main(["store", "verify", "--store", str(store.root), "--heal"]) == 0
        output = capsys.readouterr().out
        assert "issues healed" in output
        assert not victim.exists()
        assert main(["store", "verify", "--store", str(store.root)]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_heal_deletes_a_non_utf8_object(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        victim = store.path_for(store.hashes()[0])
        victim.write_bytes(b"\xff\xfe" + victim.read_bytes())
        with pytest.raises(SystemExit, match="1 corrupt"):
            main(["store", "verify", "--store", str(store.root)])
        assert main(["store", "verify", "--store", str(store.root), "--heal"]) == 0
        assert not victim.exists()
        assert main(["store", "verify", "--store", str(store.root)]) == 0
        assert "1 valid" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        store = self._seed_store(tmp_path)
        assert main(
            ["store", "verify", "--store", str(store.root), "--json", "-"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.store-audit/v1"
        assert report["valid"] == 2
        assert report["issues"] == []
