"""End-to-end HTTP tests: real sockets via ServerThread + ServeClient."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    QuotaConfig,
    ServeClient,
    ServeError,
    ServerThread,
    ServiceConfig,
)
from repro.spec import apply_overrides, get_scenario, run_scenario
from serve_helpers import CountingRunner, GatedRunner


def _config(tmp_path, **kwargs):
    kwargs.setdefault("store", str(tmp_path / "store"))
    kwargs.setdefault("backend", "thread")
    kwargs.setdefault("jobs", 2)
    return ServiceConfig(**kwargs)


@pytest.fixture()
def server(tmp_path, tiny_result):
    runner = CountingRunner(tiny_result)
    with ServerThread(_config(tmp_path), unit_runner=runner) as srv:
        srv.runner = runner
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port, token="test")


class TestBasicEndpoints:
    def test_health(self, client):
        assert client.health() == {"ok": True, "draining": False}

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("feedfacefeedface")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/run")
        assert excinfo.value.status == 405

    def test_invalid_body_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit_run({"name": "x", "topology": {"kind": "no-such"}})
        assert excinfo.value.status == 400
        assert "topology" in excinfo.value.message

    def test_stats_endpoint(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro.serve-stats/v1"
        assert stats["backend"] == "thread"


class TestSubmission:
    def test_submit_wait_fetch_result(self, server, client, tiny_spec):
        response = client.submit_run(tiny_spec.to_dict())
        descriptor = client.wait(response["job"]["id"])
        assert descriptor["state"] == "done"
        assert descriptor["computed_units"] == 1
        envelope = client.result(descriptor["id"])
        assert envelope["schema"] == "repro.scenario-result/v1"
        assert server.runner.calls == 1

    def test_resubmission_is_byte_identical_and_free(self, server, client, tiny_spec):
        first = client.submit_run(tiny_spec.to_dict())
        client.wait(first["job"]["id"])
        body1 = client.result_bytes(first["job"]["id"])
        second = client.submit_run(tiny_spec.to_dict())
        assert second["job"]["state"] == "done"  # replayed, no queue round trip
        body2 = client.result_bytes(second["job"]["id"])
        assert body1 == body2
        assert server.runner.calls == 1

    def test_events_stream_ends_with_done(self, client, tiny_spec):
        response = client.submit_run(tiny_spec.to_dict())
        names = [name for name, _ in client.events(response["job"]["id"])]
        assert names[-1] == "done"
        assert "progress" in names

    def test_result_of_unfinished_job_is_409(self, tmp_path, tiny_result, tiny_spec):
        runner = GatedRunner(tiny_result)
        with ServerThread(_config(tmp_path / "gated"), unit_runner=runner) as srv:
            client = ServeClient(srv.host, srv.port)
            response = client.submit_run(tiny_spec.to_dict())
            assert response["job"]["state"] in ("queued", "running")
            with pytest.raises(ServeError) as excinfo:
                client.result_bytes(response["job"]["id"])
            assert excinfo.value.status == 409
            runner.gate.set()
            client.wait(response["job"]["id"])

    def test_sweep_submission_over_http(self, client, tiny_spec):
        response = client.submit_sweep(
            {"base": tiny_spec.to_dict(), "grid": {"seed": [5, 6]}, "name": "g"}
        )
        descriptor = client.wait(response["job"]["id"])
        assert descriptor["kind"] == "sweep"
        envelope = client.result(descriptor["id"])
        assert envelope["schema"] == "repro.sweep-result/v1"
        assert len(envelope["points"]) == 2

    @pytest.mark.parametrize(
        "change",
        [{"name": 5}, {"grid": {"seed": 5}}, {"grid": {"seed": []}}, {"extra": 1}],
        ids=["non-string-name", "grid-not-lists", "empty-axis", "unknown-field"],
    )
    def test_malformed_sweep_body_is_400(self, client, change):
        body = {"base": get_scenario("fig7-smoke").to_dict(), **change}
        with pytest.raises(ServeError) as excinfo:
            client.submit_sweep(body)
        assert excinfo.value.status == 400
        assert "sweep" in excinfo.value.message

    def test_sweep_grid_value_of_the_wrong_shape_is_400(self, client):
        # A faults grid on a per-round base fails validation (faults need
        # protocol mode): a 400 naming the point, never a 500.
        grid = {"faults": [{"crash": 0.1}]}
        with pytest.raises(ServeError) as excinfo:
            client.submit_sweep({"base": get_scenario("fig7-smoke").to_dict(), "grid": grid})
        assert excinfo.value.status == 400
        assert "faults" in excinfo.value.message
        # The same grid on a protocol-mode base plans one point.
        response = client.submit_sweep(
            {"base": get_scenario("fig6-smoke").to_dict(), "grid": grid}
        )
        assert response["job"]["points"] == 1
        client.wait(response["job"]["id"])


class TestConcurrencyOverHttp:
    def test_concurrent_posts_coalesce_to_one_computation(
        self, tmp_path, tiny_result, tiny_spec
    ):
        runner = GatedRunner(tiny_result)
        with ServerThread(_config(tmp_path), unit_runner=runner) as srv:
            spec_dict = tiny_spec.to_dict()
            clients = [ServeClient(srv.host, srv.port) for _ in range(8)]
            barrier = threading.Barrier(8)

            def post(c):
                barrier.wait(timeout=30)
                return c.submit_run(spec_dict)

            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(post, clients))
            ids = {r["job"]["id"] for r in responses}
            assert len(ids) == 1  # all eight landed on one job
            assert sum(1 for r in responses if r["created"]) == 1
            runner.gate.set()
            descriptor = clients[0].wait(ids.pop())
            assert descriptor["state"] == "done"
        assert runner.calls == 1  # exactly one computation for 8 clients

    def test_restart_serves_from_cache_with_zero_work(
        self, tmp_path, tiny_result, tiny_spec
    ):
        spec_dict = tiny_spec.to_dict()
        cold = CountingRunner(tiny_result)
        with ServerThread(_config(tmp_path), unit_runner=cold) as srv:
            client = ServeClient(srv.host, srv.port)
            client.wait(client.submit_run(spec_dict)["job"]["id"])
        assert cold.calls == 1
        warm = CountingRunner(tiny_result)
        with ServerThread(_config(tmp_path), unit_runner=warm) as srv:
            client = ServeClient(srv.host, srv.port)
            response = client.submit_run(spec_dict)
            assert response["job"]["state"] == "done"
            stats = client.stats()
            assert stats["counters"]["serve.units.cache_hit"] == 1
            assert "serve.units.computed" not in stats["counters"]
        assert warm.calls == 0

    def test_quota_exhaustion_returns_429_with_retry_after(
        self, tmp_path, tiny_result, tiny_spec
    ):
        runner = GatedRunner(tiny_result)
        config = _config(
            tmp_path, quota=QuotaConfig(max_inflight_jobs=1, units_per_minute=0)
        )
        with ServerThread(config, unit_runner=runner) as srv:
            client = ServeClient(srv.host, srv.port, token="greedy")
            client.submit_run(tiny_spec.to_dict())
            other = apply_overrides(tiny_spec, {"seed": 99}).to_dict()
            with pytest.raises(ServeError) as excinfo:
                client.submit_run(other)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s is not None
            # A different client token has its own in-flight budget...
            neighbor = ServeClient(srv.host, srv.port, token="patient")
            response = neighbor.submit_run(other)
            runner.gate.set()
            neighbor.wait(response["job"]["id"])
            stats = client.stats()
            assert stats["counters"]["serve.quota_rejected"] == 1
            assert stats["quota"]["clients"]["greedy"]["rejected_jobs"] == 1


class TestEnvelopeIdentity:
    def test_served_bytes_match_cli_json_rendering(self, tmp_path, tiny_spec):
        # Real computation end to end: the served result body must be the
        # exact ``json.dumps(envelope, indent=2)`` the CLI writes, modulo
        # the envelope's wall-clock field.
        with ServerThread(_config(tmp_path)) as srv:
            client = ServeClient(srv.host, srv.port)
            descriptor = client.wait(
                client.submit_run(tiny_spec.to_dict())["job"]["id"]
            )
            served = client.result_bytes(descriptor["id"]).decode("utf-8")
        direct = run_scenario(tiny_spec)

        def lines_without_wall_clock(text):
            return [
                line
                for line in text.splitlines()
                if "wall_clock" not in line
            ]

        assert lines_without_wall_clock(served) == lines_without_wall_clock(
            direct.to_json() + "\n"
        )
