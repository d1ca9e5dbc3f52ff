"""Minimal asyncio HTTP/1.1 plumbing for the results service.

The service speaks a deliberately small slice of HTTP — enough for JSON
request/response round trips plus chunked server-sent-event streams — so it
runs on the standard library alone (``asyncio`` streams, no web framework).
One request per connection: every response carries ``Connection: close``,
which keeps the parser honest and sidesteps keep-alive bookkeeping; clients
that care about throughput open sockets in parallel.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote

from repro._codec import DecodeError, loads

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "send_json",
    "send_error",
    "EventStream",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "HEAD_TIMEOUT_S",
    "STATUS_PHRASES",
]

#: Request bodies above this size are rejected with 413 (a spec or sweep
#: payload is a few KB; anything megabyte-sized is a mistake or an attack).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Maximum length of the request line / one header line.
_MAX_LINE_BYTES = 16 * 1024

#: Requests with more header lines than this are rejected with 431.
MAX_HEADER_LINES = 100

#: Seconds a client has to send the whole request, head and body; a slower
#: request is answered with 408, so a stalled client cannot hold its
#: connection.
HEAD_TIMEOUT_S = 10.0

STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class HttpError(Exception):
    """An error with a definite HTTP status (rendered as a JSON body).

    ``retry_after_s`` is surfaced as a ``Retry-After`` header (rounded up
    to whole seconds) — the 429 quota contract.
    """

    def __init__(
        self, status: int, message: str, retry_after_s: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """Decode the body as JSON, mapping failures to a 400."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            data = loads(self.body, "request body")
        except DecodeError as err:
            raise HttpError(400, str(err)) from None
        if not isinstance(data, dict):
            raise HttpError(400, "request body must be a JSON object")
        return data

    @property
    def client_token(self) -> str:
        """The quota identity of the caller.

        ``Authorization: Bearer <token>`` wins, then ``X-Repro-Token``;
        unauthenticated callers share the ``"anonymous"`` bucket.
        """
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            token = auth[len("bearer ") :].strip()
            if token:
                return token
        token = self.headers.get("x-repro-token", "").strip()
        return token or "anonymous"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line with its newline; ``b""`` when the stream ends before it."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as err:
        if err.partial:
            raise HttpError(400, "request head ended mid-line") from None
        return b""
    except asyncio.LimitOverrunError:
        raise HttpError(413, "header line too long") from None
    if len(line) > _MAX_LINE_BYTES:
        raise HttpError(413, "header line too long")
    return line


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """The request line and headers up to the blank line that ends them."""
    line = await _read_line(reader)
    if not line.strip():
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(505, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    header_lines = 0
    while True:
        line = await _read_line(reader)
        if not line:
            raise HttpError(400, "request head ended before its blank line")
        if not line.strip():
            return method, target, headers
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise HttpError(431, f"more than {MAX_HEADER_LINES} header lines")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line {line.decode('latin-1')!r}")
        headers[name.strip().lower()] = value.strip()


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a cleanly closed socket.

    The head and body together must arrive within :data:`HEAD_TIMEOUT_S`
    (408 otherwise), and the head must end with its blank line (400
    otherwise).
    """
    try:
        return await asyncio.wait_for(_read_request(reader), HEAD_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise HttpError(
            408, f"request not received within {HEAD_TIMEOUT_S:g} s"
        ) from None


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    head = await _read_head(reader)
    if head is None:
        return None
    method, target, headers = head
    raw_path, _, raw_query = target.partition("?")
    query = {key: value for key, value in parse_qsl(raw_query)}
    length_text = headers.get("content-length", "0") or "0"
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"malformed Content-Length {length_text!r}") from None
    if length < 0:
        raise HttpError(400, f"malformed Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body shorter than Content-Length") from None
    return Request(
        method=method.upper(),
        path=unquote(raw_path),
        query=query,
        headers=headers,
        body=body,
    )


def _render_head(
    status: int, content_type: str, length: Optional[int], extra: Dict[str, str]
) -> bytes:
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}", f"Content-Type: {content_type}"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    *,
    headers: Optional[Dict[str, str]] = None,
    raw: Optional[bytes] = None,
) -> None:
    """Send a JSON response.

    ``raw`` sends pre-serialized bytes verbatim — the result endpoint uses
    it so served envelopes stay byte-identical to ``repro run --json``.
    """
    body = raw if raw is not None else (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    writer.write(_render_head(status, "application/json", len(body), headers or {}))
    writer.write(body)
    await writer.drain()


async def send_error(writer: asyncio.StreamWriter, error: HttpError) -> None:
    """Render an :class:`HttpError` as a JSON error body."""
    headers: Dict[str, str] = {}
    payload = {"error": {"status": error.status, "message": error.message}}
    if error.retry_after_s is not None:
        retry_after = max(1, int(error.retry_after_s + 0.999))
        headers["Retry-After"] = str(retry_after)
        payload["error"]["retry_after_s"] = error.retry_after_s
    await send_json(writer, error.status, payload, headers=headers)


class EventStream:
    """A chunked ``text/event-stream`` response (server-sent events).

    Events are framed as ``event: <name>\\ndata: <json>\\n\\n`` inside
    HTTP chunked transfer encoding, which every HTTP/1.1 client (including
    :mod:`http.client`) decodes transparently.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def start(self, headers: Optional[Dict[str, str]] = None) -> None:
        """Send the response head; events may follow."""
        extra = {"Transfer-Encoding": "chunked", "Cache-Control": "no-store"}
        extra.update(headers or {})
        self._writer.write(_render_head(200, "text/event-stream", None, extra))
        await self._writer.drain()
        self._started = True

    async def _send_chunk(self, data: bytes) -> None:
        self._writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        self._writer.write(data)
        self._writer.write(b"\r\n")
        await self._writer.drain()

    async def send_event(self, event: str, payload: Dict[str, object]) -> None:
        """Send one named event with a JSON data line."""
        frame = f"event: {event}\ndata: {json.dumps(payload, sort_keys=True)}\n\n"
        await self._send_chunk(frame.encode("utf-8"))

    async def close(self) -> None:
        """Terminate the chunked stream."""
        if self._started:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
