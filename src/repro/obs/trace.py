"""Tracing observer and the ``repro.trace/v1`` JSONL schema.

A trace file is newline-delimited JSON.  The first line is a header
naming the schema; every following line is one record whose ``kind`` is
``span``, ``counter``, ``gauge``, or ``histogram``:

``{"kind": "header", "schema": "repro.trace/v1", "scenario": ..., "span_count": N}``
``{"kind": "span", "id": 3, "parent": 1, "name": "sim.round", "start_s": ..., "end_s": ..., "attrs": {...}}``
``{"kind": "counter", "name": "sweep.units.cache_hit", "value": 12}``
``{"kind": "gauge", "name": "sweep.jobs", "value": 4}``
``{"kind": "histogram", "name": "net.latency", "summary": {"count": ..., "p50": ..., ...}}``

Span ids are sequential in creation order; ``parent`` is ``null`` for
roots.  All times are seconds relative to the observer's start.
"""

from __future__ import annotations

import json
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro._codec import DecodeError, decoder, loads
from repro.obs.observer import Observer, _install, _uninstall
from repro.obs.metrics import MetricsRegistry

TRACE_SCHEMA = "repro.trace/v1"

_CURRENT_SPAN: ContextVar[Optional[int]] = ContextVar("repro_obs_span", default=None)


class TraceError(ValueError):
    """Raised when a trace file does not conform to ``repro.trace/v1``."""


@dataclass
class SpanRecord:
    """One closed span: a named, timed region of the run hierarchy."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed wall-clock seconds between start and end."""
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form used for trace lines."""
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }


class _Span:
    """Live span handle; closes and records itself on ``__exit__``."""

    __slots__ = ("_observer", "span_id", "parent_id", "name", "start_s", "attrs", "_token")

    def __init__(self, observer: "TracingObserver", name: str, attrs: Dict[str, object]) -> None:
        self._observer = observer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.start_s = 0.0
        self._token = None

    def set_attrs(self, **attrs: object) -> None:
        """Attach or overwrite attributes on this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        obs = self._observer
        self.parent_id = _CURRENT_SPAN.get()
        self.span_id = obs._next_span_id()
        self.start_s = obs._now()
        self._token = _CURRENT_SPAN.set(self.span_id)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end_s = self._observer._now()
        _CURRENT_SPAN.reset(self._token)
        self._observer._record_span(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_s=self.start_s,
                end_s=end_s,
                attrs=self.attrs,
            )
        )
        return False


class _Activation:
    """Re-installs a tracing observer (and parent span) in a worker thread."""

    __slots__ = ("_observer", "_parent", "_obs_token", "_span_token")

    def __init__(self, observer: "TracingObserver", parent: Optional[int]) -> None:
        self._observer = observer
        self._parent = parent

    def __enter__(self) -> "TracingObserver":
        self._obs_token = _install(self._observer)
        self._span_token = _CURRENT_SPAN.set(self._parent)
        return self._observer

    def __exit__(self, *exc_info: object) -> bool:
        _CURRENT_SPAN.reset(self._span_token)
        _uninstall(self._obs_token)
        return False


class TracingObserver(Observer):
    """Observer that records spans and metrics for export.

    Thread-safe: span ids and the closed-span list are guarded by a
    lock, and the metrics registry locks its own mutations.  The span *stack*
    is context-local, so concurrent replications each see their own
    parent chain once re-entered via :meth:`activate`.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._next_id = 0
        self._spans: List[SpanRecord] = []
        self.metrics = MetricsRegistry()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _next_span_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, **attrs: object) -> _Span:
        """Open a named span; enter it as a context manager to time it."""
        return _Span(self, name, attrs)

    def count(self, name: str, value: int = 1) -> None:
        """Increment counter ``name``."""
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram ``name``."""
        self.metrics.observe(name, value)

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span in this context, if any."""
        return _CURRENT_SPAN.get()

    def activate(self, parent: Optional[int] = None) -> _Activation:
        """Context manager installing this observer inside a worker thread."""
        return _Activation(self, parent)

    def spans(self) -> List[SpanRecord]:
        """Closed spans, ordered by span id (creation order)."""
        with self._lock:
            return sorted(self._spans, key=lambda record: record.span_id)

    def to_payload(self, scenario: Optional[str] = None) -> Dict[str, object]:
        """JSON-ready trace payload (header fields + records)."""
        spans = self.spans()
        metrics = self.metrics.snapshot()
        header: Dict[str, object] = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "span_count": len(spans),
        }
        if scenario is not None:
            header["scenario"] = scenario
        return {
            "header": header,
            "spans": [record.to_dict() for record in spans],
            "counters": metrics["counters"],
            "gauges": metrics["gauges"],
            "histograms": metrics["histograms"],
        }


@dataclass
class TraceData:
    """Parsed, validated contents of a ``repro.trace/v1`` file."""

    header: Dict[str, object]
    spans: List[SpanRecord]
    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, Dict[str, float]]


def write_trace(path, observer: TracingObserver, scenario: Optional[str] = None) -> None:
    """Write the observer's trace to ``path`` as ``repro.trace/v1`` JSONL."""
    payload = observer.to_payload(scenario=scenario)
    lines = [json.dumps(payload["header"], sort_keys=True)]
    for span_dict in payload["spans"]:
        lines.append(json.dumps(span_dict, sort_keys=True))
    for name, value in payload["counters"].items():
        lines.append(json.dumps({"kind": "counter", "name": name, "value": value}, sort_keys=True))
    for name, value in payload["gauges"].items():
        lines.append(json.dumps({"kind": "gauge", "name": name, "value": value}, sort_keys=True))
    for name, summary in payload["histograms"].items():
        lines.append(
            json.dumps({"kind": "histogram", "name": name, "summary": summary}, sort_keys=True)
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SPAN_FIELDS = {"kind", "id", "parent", "name", "start_s", "end_s", "attrs"}


def _decoded(decode, value, path: str):
    """``decode(value, path)`` through the shared codec, failing as TraceError."""
    try:
        return decode(value, path)
    except DecodeError as error:
        raise TraceError(str(error)) from None


def _parse_span(record: Dict[str, object], line_number: int) -> SpanRecord:
    missing = _SPAN_FIELDS - set(record)
    if missing:
        raise TraceError(f"line {line_number}: span missing fields {sorted(missing)}")
    if not isinstance(record["id"], int) or record["id"] < 0:
        raise TraceError(f"line {line_number}: span id must be a non-negative integer")
    parent = record["parent"]
    if parent is not None and not isinstance(parent, int):
        raise TraceError(f"line {line_number}: span parent must be an integer or null")
    if not isinstance(record["name"], str) or not record["name"]:
        raise TraceError(f"line {line_number}: span name must be a non-empty string")
    start_s, end_s = (
        _decoded(decoder(float), record[key], f"line {line_number}: span {key}")
        for key in ("start_s", "end_s")
    )
    if end_s < start_s:
        raise TraceError(f"line {line_number}: span ends before it starts")
    if not isinstance(record["attrs"], dict):
        raise TraceError(f"line {line_number}: span attrs must be an object")
    return SpanRecord(
        span_id=record["id"],
        parent_id=parent,
        name=record["name"],
        start_s=start_s,
        end_s=end_s,
        attrs=dict(record["attrs"]),
    )


def read_trace(path) -> TraceData:
    """Parse and strictly validate a ``repro.trace/v1`` file."""
    lines = [line for line in Path(path).read_bytes().splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace file")
    header = _decoded(loads, lines[0], "line 1")
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise TraceError("line 1: first record must be the trace header")
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"unsupported trace schema {header.get('schema')!r}; expected {TRACE_SCHEMA!r}"
        )
    spans: List[SpanRecord] = []
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    seen_ids = set()
    for line_number, line in enumerate(lines[1:], start=2):
        record = _decoded(loads, line, f"line {line_number}")
        if not isinstance(record, dict):
            raise TraceError(f"line {line_number}: record must be a JSON object")
        kind = record.get("kind")
        if kind == "span":
            span = _parse_span(record, line_number)
            if span.span_id in seen_ids:
                raise TraceError(f"line {line_number}: duplicate span id {span.span_id}")
            seen_ids.add(span.span_id)
            spans.append(span)
        elif kind in ("counter", "gauge"):
            name = record.get("name")
            value = record.get("value")
            if not isinstance(name, str) or not name:
                raise TraceError(f"line {line_number}: {kind} name must be a non-empty string")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TraceError(f"line {line_number}: {kind} value must be a number")
            (counters if kind == "counter" else gauges)[name] = value
        elif kind == "histogram":
            name = record.get("name")
            summary = record.get("summary")
            if not isinstance(name, str) or not name:
                raise TraceError(f"line {line_number}: histogram name must be a non-empty string")
            if not isinstance(summary, dict):
                raise TraceError(f"line {line_number}: histogram summary must be an object")
            required = {"count", "total", "min", "max", "mean", "p50", "p90", "p99"}
            missing = required - set(summary)
            if missing:
                raise TraceError(
                    f"line {line_number}: histogram summary missing {sorted(missing)}"
                )
            for key in sorted(required):
                _decoded(decoder(float), summary[key], f"line {line_number}: histogram {key}")
            histograms[name] = dict(summary)
        else:
            raise TraceError(f"line {line_number}: unknown record kind {kind!r}")
    for span in spans:
        if span.parent_id is not None and span.parent_id not in seen_ids:
            raise TraceError(f"span {span.span_id} references unknown parent {span.parent_id}")
    expected = header.get("span_count")
    if expected is not None and expected != len(spans):
        raise TraceError(f"header span_count={expected} but file contains {len(spans)} spans")
    return TraceData(
        header=header, spans=spans, counters=counters, gauges=gauges, histograms=histograms
    )
