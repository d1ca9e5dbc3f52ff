"""HTTP front of the results service: routing, lifecycle, test harness.

:class:`ReproServer` binds a :class:`~repro.serve.service.ResultService`
to an asyncio TCP server and routes the small ``/v1`` API:

====== ============================ ==========================================
Method Path                         Meaning
====== ============================ ==========================================
POST   ``/v1/run``                  Submit one scenario spec (``{"spec": …}``)
POST   ``/v1/sweep``                Submit a sweep (``{"plan": …}`` or grid)
GET    ``/v1/jobs``                 List known job descriptors
GET    ``/v1/jobs/<id>``            One job descriptor
GET    ``/v1/jobs/<id>/result``     The envelope (byte-identical to the CLI)
GET    ``/v1/jobs/<id>/events``     Server-sent progress events (chunked)
GET    ``/v1/stats``                Service counters/gauges/quota accounting
GET    ``/v1/health``               Liveness probe
====== ============================ ==========================================

:class:`ServerThread` runs the whole stack on a background thread with an
ephemeral port — the harness tests and benchmarks use to exercise the
real socket path in-process.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional

from repro.serve.http import (
    EventStream,
    HttpError,
    Request,
    read_request,
    send_error,
    send_json,
)
from repro.serve.service import (
    QuotaExceeded,
    ResultService,
    ServiceConfig,
    ServiceDraining,
)
from repro.spec.scenario import SpecError

__all__ = ["ReproServer", "ServerThread", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8737

#: Terminal SSE event names — the stream closes after sending one.
_TERMINAL_EVENTS = ("done", "failed", "shutdown")


class ReproServer:
    """Routes HTTP requests onto one :class:`ResultService`."""

    def __init__(
        self,
        service: ResultService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral port)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (pair with :meth:`stop`)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections, then drain in-flight jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status = 500
        request: Optional[Request] = None
        try:
            request = await read_request(reader)
            if request is None:
                return
            with self.service.obs.span(
                "serve.request", method=request.method, path=request.path
            ) as span:
                self.service._count("serve.requests")
                try:
                    status = await self._route(request, reader, writer)
                except HttpError as err:
                    status = err.status
                    await send_error(writer, err)
                span.set_attrs(status=status)
        except HttpError as err:
            # Parse-level failure: no request to span.
            status = err.status
            try:
                await send_error(writer, err)
            except (ConnectionError, BrokenPipeError):
                pass
        except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
            pass
        except Exception as err:  # noqa: BLE001 - last-resort 500
            try:
                await send_error(writer, HttpError(500, f"{type(err).__name__}: {err}"))
            except (ConnectionError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _route(
        self,
        request: Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> int:
        parts = [part for part in request.path.split("/") if part]
        if parts[:1] != ["v1"]:
            raise HttpError(404, f"unknown path {request.path!r}")
        tail = parts[1:]
        if tail == ["health"]:
            self._require(request, "GET")
            await send_json(
                writer,
                200,
                {"ok": True, "draining": self.service.draining},
            )
            return 200
        if tail == ["stats"]:
            self._require(request, "GET")
            await send_json(writer, 200, self.service.stats())
            return 200
        if tail == ["run"] or tail == ["sweep"]:
            self._require(request, "POST")
            return await self._submit(tail[0], request, writer)
        if tail == ["jobs"]:
            self._require(request, "GET")
            jobs = [job.describe() for job in self.service.jobs()]
            await send_json(writer, 200, {"jobs": jobs})
            return 200
        if len(tail) >= 2 and tail[0] == "jobs":
            job = self.service.get_job(tail[1])
            if job is None:
                raise HttpError(404, f"unknown job {tail[1]!r}")
            if len(tail) == 2:
                self._require(request, "GET")
                await send_json(writer, 200, {"job": job.describe()})
                return 200
            if tail[2:] == ["result"]:
                self._require(request, "GET")
                if job.state == "failed":
                    raise HttpError(500, f"job {job.id} failed: {job.error}")
                if not job.finished:
                    raise HttpError(
                        409, f"job {job.id} is {job.state}; result not ready"
                    )
                raw = (json.dumps(job.result, indent=2) + "\n").encode("utf-8")
                await send_json(writer, 200, None, raw=raw)
                return 200
            if tail[2:] == ["events"]:
                self._require(request, "GET")
                await self._stream_events(job, writer)
                return 200
        raise HttpError(404, f"unknown path {request.path!r}")

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.path} supports {method}, not {request.method}"
            )

    async def _submit(
        self, kind: str, request: Request, writer: asyncio.StreamWriter
    ) -> int:
        payload = request.json()
        token = request.client_token
        try:
            if kind == "run":
                spec = payload.get("spec", payload)
                if not isinstance(spec, dict):
                    raise HttpError(400, "run: 'spec' must be a JSON object")
                job, created = await self.service.submit_run(spec, token)
            else:
                job, created = await self.service.submit_sweep(payload, token)
        except QuotaExceeded as err:
            raise HttpError(429, str(err), retry_after_s=err.retry_after_s) from None
        except ServiceDraining as err:
            raise HttpError(503, str(err), retry_after_s=5.0) from None
        except SpecError as err:
            raise HttpError(400, str(err)) from None
        status = 200 if job.finished else 202
        await send_json(
            writer,
            status,
            {
                "job": job.describe(),
                "created": created,
                "result_url": f"/v1/jobs/{job.id}/result",
                "events_url": f"/v1/jobs/{job.id}/events",
            },
        )
        return status

    async def _stream_events(self, job, writer: asyncio.StreamWriter) -> None:
        stream = EventStream(writer)
        await stream.start()
        if job.finished:
            # Replay history and close; no need to subscribe.
            for event in job.events:
                await stream.send_event(str(event.get("event", "message")), event)
            await stream.close()
            return
        queue = job.subscribe()
        try:
            while True:
                event = await queue.get()
                name = str(event.get("event", "message"))
                await stream.send_event(name, event)
                if name in _TERMINAL_EVENTS:
                    break
            await stream.close()
        finally:
            job.unsubscribe(queue)


class ServerThread:
    """A live server on a background thread — the in-process test harness.

    Runs its own event loop, binds an ephemeral port by default, and joins
    cleanly (draining the service) on :meth:`stop` / context-manager exit::

        with ServerThread(ServiceConfig(store=tmp, backend="thread")) as srv:
            client = ServeClient(srv.host, srv.port)
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        service: Optional[ResultService] = None,
        **service_kwargs,
    ) -> None:
        self.service = service or ResultService(config, **service_kwargs)
        self.host = host
        self.port = port
        self._server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._shutdown: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the socket is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve: server thread failed to start in 30s")
        if self._startup_error is not None:
            raise RuntimeError(f"serve: server failed to start: {self._startup_error}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = ReproServer(self.service, host=self.host, port=self.port)
        try:
            await server.start()
        except OSError as err:
            self._startup_error = err
            self._ready.set()
            return
        self._server = server
        self.port = server.port
        self._ready.set()
        await self._shutdown.wait()
        await server.stop()

    def stop(self) -> None:
        """Signal shutdown, drain the service, and join the thread."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
