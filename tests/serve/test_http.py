"""Request parsing of repro.serve.http and the request deadline."""

import asyncio
import socket
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServerThread, ServiceConfig
from repro.serve import http
from repro.serve.http import (
    MAX_HEADER_LINES,
    STATUS_PHRASES,
    HttpError,
    read_request,
)


def _parse(data: bytes, eof: bool = True):
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        # The outer bound turns a parser that waits forever into a failure.
        return await asyncio.wait_for(read_request(reader), 5)

    return asyncio.run(parse())


def _status(data: bytes, eof: bool = True) -> int:
    with pytest.raises(HttpError) as excinfo:
        _parse(data, eof)
    return excinfo.value.status


def _head(header_lines: int) -> bytes:
    headers = b"".join(b"X-H%d: v\r\n" % index for index in range(header_lines))
    return b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n"


class TestReadRequest:
    def test_complete_request_parses(self):
        request = _parse(
            b"POST /v1/run?x=1 HTTP/1.1\r\nContent-Length: 2\r\nHost: h\r\n\r\n{}"
        )
        assert (request.method, request.path, request.query) == (
            "POST", "/v1/run", {"x": "1"}
        )
        assert request.headers == {"content-length": "2", "host": "h"}
        assert request.body == b"{}"

    def test_clean_close_is_no_request(self):
        assert _parse(b"") is None

    def test_head_cut_mid_header_is_400(self):
        assert _status(b"GET /v1/health HTTP/1.1\r\nHost: x") == 400

    def test_head_without_its_blank_line_is_400(self):
        assert _status(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n") == 400

    def test_request_line_without_crlf_is_400(self):
        assert _status(b"GET /v1/health HTTP/1.1") == 400

    def test_header_count_is_capped_with_431(self):
        assert _parse(_head(MAX_HEADER_LINES)).path == "/v1/health"
        assert _status(_head(MAX_HEADER_LINES + 1)) == 431
        assert STATUS_PHRASES[431] == "Request Header Fields Too Large"

    def test_stalled_head_is_408(self, monkeypatch):
        monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.05)
        assert _status(b"GET /v1/hea", eof=False) == 408

    def test_stalled_body_is_408(self, monkeypatch):
        monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.05)
        head = b"POST /v1/run HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
        assert _status(head + b"{}", eof=False) == 408
        assert _status(head + b"{}") == 400  # closed short of Content-Length


byte_streams = st.lists(
    st.sampled_from(
        [b"GET /v1/health HTTP/1.1\r\n", b"POST /v1/run HTTP/1.0\r\n", b"Host: x\r\n",
         b"Content-Length: 4\r\n", b"Content-Length: -1\r\n", b"X: \xff\r\n",
         b"\r\n", b"\n", b"{}", b":", b" ",
         b"POST /v1/run HTTP/1.1\r\nContent-Length: 4\r\n\r\n"]
    )
    | st.binary(max_size=24),
    max_size=8,
).map(b"".join)


def _assert_request_or_client_error(data: bytes, eof: bool) -> None:
    try:
        request = _parse(data, eof)
    except HttpError as err:
        assert 400 <= err.status < 500 or err.status == 505, err.status
    else:
        assert request is None or isinstance(request, http.Request)


@settings(max_examples=300, deadline=None)
@given(byte_streams)
def test_any_closed_byte_stream_is_a_request_or_a_client_error(data):
    _assert_request_or_client_error(data, eof=True)


@settings(max_examples=100, deadline=None)
@given(byte_streams)
def test_any_stalled_byte_stream_is_a_request_or_a_client_error(data):
    # The stream stays open: anything short of a whole request must end in
    # 408 at the deadline, never in a handler that waits forever.
    with mock.patch.object(http, "HEAD_TIMEOUT_S", 0.01):
        _assert_request_or_client_error(data, eof=False)


def test_server_answers_a_stalled_client_within_the_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(http, "HEAD_TIMEOUT_S", 0.2)
    config = ServiceConfig(store=str(tmp_path / "store"), backend="thread", jobs=1)
    with ServerThread(config) as server:
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"GET /v1/hea")
            started = time.monotonic()
            reply = sock.recv(4096)
            elapsed = time.monotonic() - started
    assert reply == b"" or reply.startswith(b"HTTP/1.1 408 ")
    assert elapsed < 5


NESTED_BODY = b"[" * 100000 + b"]" * 100000  # 200 KB, far past the parser's depth


class TestRequestJson:
    def _status(self, body: bytes) -> int:
        with pytest.raises(HttpError) as excinfo:
            http.Request(method="POST", path="/v1/run", body=body).json()
        return excinfo.value.status

    @pytest.mark.parametrize(
        "body",
        [NESTED_BODY, b"\xff\xfe", b"{not json", b"1" * 5000, b"[]", b""],
        ids=["nested", "not-utf8", "not-json", "long-integer", "array", "empty"],
    )
    def test_undecodable_or_non_object_body_is_400(self, body):
        assert self._status(body) == 400


def test_server_answers_a_deeply_nested_body_with_400(tmp_path):
    config = ServiceConfig(store=str(tmp_path / "store"), backend="thread", jobs=1)
    head = b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(NESTED_BODY)
    with ServerThread(config) as server:
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(head + NESTED_BODY)
            # The head and body may arrive in separate segments; the server
            # closes the connection after its reply.
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
    assert b"nested too deeply" in reply
