"""Exporter round-trips: JSONL, Chrome trace_event, metrics text."""

import json
from fractions import Fraction

import pytest

from repro.telemetry import (
    MetricsRegistry,
    TraceRecord,
    Tracer,
    chrome_trace,
    load_chrome_trace,
    read_jsonl,
    render_metrics,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


def _sample_records():
    tracer = Tracer()
    with tracer.span("kernel.run", policy="rr", makespan=4):
        tracer.complete("kernel.step.query", tracer.epoch, 0.001, t=0)
        tracer.event("kernel.heartbeat", t=2, waited=4)
    return tracer.records


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = _sample_records()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(records, path)
        assert count == len(records)
        back = read_jsonl(path)
        assert back == records

    def test_lines_are_independent_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_records(), path)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            assert {"kind", "name", "ts", "span_id"} <= set(doc)

    def test_fraction_attrs_serialize_as_floats(self, tmp_path):
        record = TraceRecord(
            kind="event",
            name="x",
            ts=0.0,
            dur=None,
            span_id=1,
            parent_id=None,
            attrs={"share": Fraction(1, 2), "row": [Fraction(1, 4)]},
        )
        path = tmp_path / "trace.jsonl"
        write_jsonl([record], path)
        (back,) = read_jsonl(path)
        assert back.attrs["share"] == 0.5
        assert back.attrs["row"] == [0.25]


class TestChromeTrace:
    def test_structure(self):
        doc = chrome_trace(_sample_records(), pid=7)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["name"]: e["ph"] for e in doc["traceEvents"]}
        assert phases["kernel.run"] == "X"
        assert phases["kernel.step.query"] == "X"
        assert phases["kernel.heartbeat"] == "i"
        for event in doc["traceEvents"]:
            assert event["pid"] == 7
            assert event["cat"] == "kernel"

    def test_timestamps_are_microseconds(self):
        record = TraceRecord(
            kind="span", name="s", ts=0.5, dur=0.25, span_id=1, parent_id=None
        )
        (event,) = chrome_trace([record])["traceEvents"]
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(_sample_records(), path)
        doc = load_chrome_trace(path)
        assert len(doc["traceEvents"]) == count

    def test_load_rejects_non_trace_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ValueError, match="not a Chrome trace_event"):
            load_chrome_trace(path)
        path.write_text('{"traceEvents": [{"ph": "X"}]}')
        with pytest.raises(ValueError, match="missing 'name'"):
            load_chrome_trace(path)


class TestWriteTrace:
    def test_format_dispatch(self, tmp_path):
        records = _sample_records()
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        assert write_trace(records, jsonl, format="jsonl") == len(records)
        assert write_trace(records, chrome, format="chrome") == len(records)
        assert read_jsonl(jsonl) == records
        load_chrome_trace(chrome)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace([], tmp_path / "t", format="xml")


def test_render_metrics_matches_to_text():
    registry = MetricsRegistry()
    registry.counter("kernel.steps").inc(2)
    assert render_metrics(registry) == registry.to_text(prefix="repro")
