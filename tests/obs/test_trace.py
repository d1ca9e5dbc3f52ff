"""The ``repro.trace/v1`` file format: round-trip, validation, summary."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TRACE_SCHEMA,
    TraceError,
    TracingObserver,
    read_trace,
    summarize_trace_file,
    use_observer,
    write_trace,
)


def recorded_observer():
    """An observer with a small but fully-featured trace recorded."""
    observer = TracingObserver()
    with use_observer(observer):
        with observer.span("run", scenario="demo"):
            with observer.span("sim.round", round=1):
                observer.count("hits", 2)
                observer.observe("latency", 0.5)
                observer.observe("latency", 1.5)
            observer.gauge("jobs", 4)
    return observer


class TestRoundTrip:
    def test_write_then_read_preserves_everything(self, tmp_path):
        observer = recorded_observer()
        path = tmp_path / "trace.jsonl"
        write_trace(path, observer, scenario="demo")
        trace = read_trace(path)
        assert trace.header["schema"] == TRACE_SCHEMA
        assert trace.header["scenario"] == "demo"
        assert trace.header["span_count"] == 2
        assert [span.name for span in trace.spans] == ["run", "sim.round"]
        root, child = trace.spans
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert child.attrs == {"round": 1}
        assert trace.counters == {"hits": 2}
        assert trace.gauges == {"jobs": 4}
        assert trace.histograms["latency"]["count"] == 2
        assert trace.histograms["latency"]["mean"] == 1.0

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, recorded_observer())
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_scenarioless_header_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, recorded_observer())
        trace = read_trace(path)
        assert "scenario" not in trace.header


def write_lines(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


HEADER = json.dumps({"kind": "header", "schema": TRACE_SCHEMA, "span_count": 0})


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty trace file"):
            read_trace(path)

    def test_missing_header_rejected(self, tmp_path):
        path = write_lines(tmp_path, ['{"kind": "counter", "name": "x", "value": 1}'])
        with pytest.raises(TraceError, match="first record must be the trace header"):
            read_trace(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, ['{"kind": "header", "schema": "repro.trace/v999"}']
        )
        with pytest.raises(TraceError, match="unsupported trace schema"):
            read_trace(path)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, "{not json"])
        with pytest.raises(TraceError, match="line 2: invalid JSON"):
            read_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, '{"kind": "mystery"}'])
        with pytest.raises(TraceError, match="unknown record kind"):
            read_trace(path)

    def test_span_missing_fields_rejected(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, '{"kind": "span", "id": 0}'])
        with pytest.raises(TraceError, match="span missing fields"):
            read_trace(path)

    def test_span_ending_before_start_rejected(self, tmp_path):
        span = json.dumps(
            {
                "kind": "span",
                "id": 0,
                "parent": None,
                "name": "x",
                "start_s": 2.0,
                "end_s": 1.0,
                "attrs": {},
            }
        )
        path = write_lines(tmp_path, [HEADER, span])
        with pytest.raises(TraceError, match="ends before it starts"):
            read_trace(path)

    def test_duplicate_span_id_rejected(self, tmp_path):
        span = json.dumps(
            {
                "kind": "span",
                "id": 0,
                "parent": None,
                "name": "x",
                "start_s": 0.0,
                "end_s": 1.0,
                "attrs": {},
            }
        )
        path = write_lines(tmp_path, [HEADER, span, span])
        with pytest.raises(TraceError, match="duplicate span id"):
            read_trace(path)

    def test_unknown_parent_rejected(self, tmp_path):
        span = json.dumps(
            {
                "kind": "span",
                "id": 0,
                "parent": 99,
                "name": "x",
                "start_s": 0.0,
                "end_s": 1.0,
                "attrs": {},
            }
        )
        path = write_lines(tmp_path, [HEADER, span])
        with pytest.raises(TraceError, match="unknown parent 99"):
            read_trace(path)

    def test_span_count_mismatch_rejected(self, tmp_path):
        header = json.dumps(
            {"kind": "header", "schema": TRACE_SCHEMA, "span_count": 3}
        )
        path = write_lines(tmp_path, [header])
        with pytest.raises(TraceError, match="span_count=3"):
            read_trace(path)

    def test_counter_value_must_be_numeric(self, tmp_path):
        path = write_lines(
            tmp_path, [HEADER, '{"kind": "counter", "name": "x", "value": "no"}']
        )
        with pytest.raises(TraceError, match="counter value must be a number"):
            read_trace(path)

    def test_histogram_summary_must_be_complete(self, tmp_path):
        path = write_lines(
            tmp_path,
            [HEADER, '{"kind": "histogram", "name": "h", "summary": {"count": 1}}'],
        )
        with pytest.raises(TraceError, match="histogram summary missing"):
            read_trace(path)


SPAN = json.dumps(
    {
        "kind": "span",
        "id": 0,
        "parent": None,
        "name": "x",
        "start_s": 0.0,
        "end_s": 1.0,
        "attrs": {},
    }
)


HISTOGRAM = json.dumps(
    {
        "kind": "histogram",
        "name": "h",
        "summary": {"count": 2, "total": 3.0, "min": 1.0, "max": 2.0, "mean": 1.5,
                    "p50": 1.5, "p90": 2.0, "p99": 2.0},
    }
)


class TestUntrustedBytes:
    @pytest.mark.parametrize(
        "line, message",
        [
            (b"\xff\xfe", "line 2: not UTF-8 text"),
            (b'{"kind": "counter", "name": "x", "value": ' + b"1" * 5000 + b"}",
             "line 2: invalid JSON"),
            (b"[" * 100000, "line 2: JSON nested too deeply"),
            (SPAN.replace('"start_s": 0.0', '"start_s": ' + "1" * 400).encode(),
             "line 2: span start_s: expected a finite number"),
            (HISTOGRAM.replace('"mean": 1.5', '"mean": "x"').encode(),
             "line 2: histogram mean: expected a number"),
        ],
        ids=["not-utf8", "long-integer", "nested", "float-overflow", "histogram-text"],
    )
    def test_undecodable_line_is_a_trace_error_naming_it(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(HEADER.encode() + b"\n" + line + b"\n")
        with pytest.raises(TraceError, match=message):
            read_trace(path)


trace_lines = st.lists(
    st.sampled_from(
        [HEADER.encode(), SPAN.encode(), b'{"kind": "counter", "name": "x", "value": 1}',
         b'{"kind": "gauge", "name": "g", "value": 1e999}', b"\xff\xfe", b"1" * 5000,
         HISTOGRAM.encode(), HISTOGRAM.replace('"count": 2', '"count": "x"').encode(),
         b"[" * 3000, b"{}", b"NaN", b'{"kind": "span"}', b""]
    )
    | st.binary(max_size=24),
    max_size=6,
).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@given(data=trace_lines)
def test_any_byte_file_is_a_trace_or_a_trace_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_bytes(data)
    try:
        trace = read_trace(path)
    except TraceError:
        return
    assert trace.header["schema"] == TRACE_SCHEMA
    assert summarize_trace_file(path).startswith("trace summary")


class TestSummarize:
    def test_summary_tables_mention_all_record_kinds(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, recorded_observer(), scenario="demo")
        text = summarize_trace_file(path)
        assert "trace summary (demo)" in text
        assert "sim.round" in text
        assert "hits" in text
        assert "jobs" in text
        assert "latency" in text
