"""The tracer must emit valid Chrome-trace (Perfetto-loadable) JSON."""

import json

from repro.obs import SpanTracer


def test_complete_event_shape():
    tracer = SpanTracer()
    tracer.set_process(0, "phase0")
    tracer.complete("dma", "pcie.rx", 1_000.0, 500.0, bytes=4096)
    doc = tracer.to_dict()
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1
    span = spans[0]
    assert span["name"] == "dma"
    assert span["ts"] == 1.0  # microseconds
    assert span["dur"] == 0.5
    assert span["pid"] == 0
    assert isinstance(span["tid"], int)
    assert span["args"] == {"bytes": 4096}


def test_metadata_names_processes_and_threads():
    tracer = SpanTracer()
    tracer.set_process(3, "Fig 2 strict flows=5")
    tracer.complete("walk", "walker0", 0.0, 100.0)
    meta = [e for e in tracer.events if e["ph"] == "M"]
    names = {(e["name"], e["args"]["name"]) for e in meta}
    assert ("process_name", "Fig 2 strict flows=5") in names
    assert ("thread_name", "walker0") in names


def test_tracks_get_stable_distinct_tids():
    tracer = SpanTracer()
    tracer.complete("a", "t1", 0.0, 1.0)
    tracer.complete("b", "t2", 0.0, 1.0)
    tracer.complete("c", "t1", 0.0, 1.0)
    spans = [e for e in tracer.events if e["ph"] == "X"]
    assert spans[0]["tid"] == spans[2]["tid"]
    assert spans[0]["tid"] != spans[1]["tid"]


def test_tids_reset_per_process():
    tracer = SpanTracer()
    tracer.set_process(0, "p0")
    tracer.complete("a", "t1", 0.0, 1.0)
    tracer.set_process(1, "p1")
    tracer.complete("b", "t1", 0.0, 1.0)
    spans = [e for e in tracer.events if e["ph"] == "X"]
    assert spans[0]["pid"] == 0
    assert spans[1]["pid"] == 1


def test_instant_uses_bound_clock():
    tracer = SpanTracer()
    clock = {"now": 2_000.0}
    tracer.bind_clock(lambda: clock["now"])
    tracer.instant("retry", "driver", attempt=1)
    instants = [e for e in tracer.events if e["ph"] == "i"]
    assert instants[0]["ts"] == 2.0
    assert instants[0]["s"] == "t"


def test_unbound_clock_stamps_zero():
    tracer = SpanTracer()
    assert tracer.now() == 0.0
    tracer.instant("x", "t")
    assert [e for e in tracer.events if e["ph"] == "i"][0]["ts"] == 0.0


def test_negative_duration_clamped():
    tracer = SpanTracer()
    tracer.complete("x", "t", 100.0, -5.0)
    assert [e for e in tracer.events if e["ph"] == "X"][0]["dur"] == 0.0


def test_phase_budget_drops_and_counts(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.obs.tracer.PHASE_EVENT_BUDGET", 2)
    tracer = SpanTracer()
    for i in range(5):
        tracer.complete("x", "t", float(i) * 1000.0, 1.0)
    # The budget evicts the oldest spans: the end of the phase survives.
    spans = [e for e in tracer.events if e["ph"] == "X"]
    assert [e["ts"] for e in spans] == [3.0, 4.0]
    assert tracer.dropped_events == 3
    # The written document holds what ``events`` holds and says how
    # many events the budget dropped.
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"] == tracer.events
    assert doc["otherData"] == {"dropped_events": 3}


def test_full_phase_leaves_later_phases_their_budget(monkeypatch):
    # A long first phase must not crowd the later ones out of the file:
    # every phase keeps its own last events, and its metadata always.
    monkeypatch.setattr("repro.obs.tracer.PHASE_EVENT_BUDGET", 3)
    tracer = SpanTracer()
    for pid, count in enumerate((10, 1, 10)):
        tracer.set_process(pid, f"phase{pid}")
        for i in range(count):
            tracer.complete("x", "t", float(i), 1.0)
        tracer.instant("late", "late-track")
    kept = {}
    for event in tracer.events:
        if event["ph"] != "M":
            kept.setdefault(event["pid"], []).append(event["name"])
    assert kept == {
        0: ["x", "x", "late"], 1: ["x", "late"], 2: ["x", "x", "late"],
    }
    assert tracer.dropped_events == (10 + 1 - 3) + (10 + 1 - 3)
    names = [e["args"]["name"] for e in tracer.events
             if e["name"] == "process_name"]
    assert names == ["phase0", "phase1", "phase2"]
    tracks = {(e["pid"], e["args"]["name"]) for e in tracer.events
              if e["name"] == "thread_name"}
    assert tracks == {
        (pid, track) for pid in range(3) for track in ("t", "late-track")
    }


def test_document_round_trips_through_json(tmp_path):
    tracer = SpanTracer()
    tracer.set_process(0, "p")
    tracer.complete("dma", "pcie.rx", 0.0, 10.0, bytes=4096)
    tracer.instant("retry", "driver")
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X", "i"}
    for event in doc["traceEvents"]:
        assert {"name", "ph", "pid", "tid"} <= set(event)
