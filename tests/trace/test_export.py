"""Tests for trace exporters and the schema validator."""

import json

from repro.trace import (
    Tracer,
    chrome_trace,
    render_timeline,
    utilization,
    validate_chrome_trace,
)


def sample_tracer():
    tracer = Tracer()
    tracer.span("pack", track="phase", start_ns=0, duration_ns=400,
                category="phase")
    tracer.span("gather", track="sender_cpu", start_ns=0, duration_ns=300,
                category="stage", chunk=0)
    tracer.span("net", track="network", start_ns=300, duration_ns=500,
                category="stage", chunk=0)
    tracer.count("runtime.transfers")
    tracer.observe("wait_ns", 12.5)
    return tracer


class TestChromeTrace:
    def test_round_trips_through_json(self):
        payload = chrome_trace(sample_tracer())
        assert json.loads(json.dumps(payload)) == payload

    def test_validates_against_schema(self):
        assert validate_chrome_trace(chrome_trace(sample_tracer())) == []

    def test_thread_names_emitted(self):
        payload = chrome_trace(sample_tracer())
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {"phase", "sender_cpu", "network"}

    def test_spans_become_complete_events_in_us(self):
        payload = chrome_trace(sample_tracer())
        net = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "net"
        ]
        assert net[0]["ts"] == 0.3  # 300 ns -> 0.3 us
        assert net[0]["dur"] == 0.5

    def test_counters_become_counter_events(self):
        payload = chrome_trace(sample_tracer())
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["name"] == "runtime.transfers"
        assert counters[0]["args"]["value"] == 1.0

    def test_metadata_and_metrics_attached(self):
        payload = chrome_trace(sample_tracer(), metadata={"machine": "T3D"})
        assert payload["metadata"]["machine"] == "T3D"
        assert payload["metrics"]["runtime.transfers"] == 1.0
        assert payload["metrics"]["wait_ns"]["count"] == 1.0


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) != []

    def test_rejects_empty_event_list(self):
        assert validate_chrome_trace({"traceEvents": []}) != []

    def test_rejects_bad_phase(self):
        payload = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]}
        errors = validate_chrome_trace(payload)
        assert any("ph" in e for e in errors)

    def test_rejects_unhashable_phase(self):
        payload = {"traceEvents": [{"ph": ["X"], "name": "x", "pid": 0,
                                    "tid": 0}]}
        errors = validate_chrome_trace(payload)
        assert any("ph" in e for e in errors)

    def test_rejects_negative_duration(self):
        payload = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0,
                 "ts": 0.0, "dur": -1.0}
            ]
        }
        errors = validate_chrome_trace(payload)
        assert any("negative" in e for e in errors)

    def test_rejects_non_numeric_counter(self):
        payload = {
            "traceEvents": [
                {"ph": "C", "name": "c", "pid": 0, "tid": 0, "ts": 0,
                 "args": {"value": "high"}}
            ]
        }
        assert validate_chrome_trace(payload) != []

    def test_rejects_metadata_without_name(self):
        payload = {
            "traceEvents": [{"ph": "M", "name": "thread_name", "pid": 0,
                             "tid": 0, "args": {}}]
        }
        assert validate_chrome_trace(payload) != []


class TestUtilization:
    def test_busy_fractions(self):
        busy = utilization(sample_tracer())
        # Trace spans 0..800 ns; gather busy 300, net busy 500.
        assert busy["sender_cpu"] == 300 / 800
        assert busy["network"] == 500 / 800
        assert "phase" not in busy  # logical lane, not a resource

    def test_empty_tracer(self):
        assert utilization(Tracer()) == {}


class TestTimeline:
    def test_renders_all_tracks(self):
        text = render_timeline(sample_tracer())
        for track in ("phase", "sender_cpu", "network"):
            assert track in text

    def test_empty_tracer_message(self):
        assert "empty" in render_timeline(Tracer())
