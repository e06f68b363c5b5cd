"""Trace digest: Chrome-trace parsing, stats, and the summary figure."""

import json

import pytest

from repro.obs import SpanTracer
from repro.obs.publish.htmlindex import render_index
from repro.obs.publish.tracedigest import (
    CRITICAL_PATH_HEADERS,
    bin_center_us,
    critical_path_rows,
    digest_artifact,
    digest_trace,
    load_trace,
)


def make_trace() -> dict:
    tracer = SpanTracer()
    tracer.set_process(0, "test")
    # dma_map dominates total time; irq is frequent but cheap.
    for i in range(10):
        tracer.complete(
            "dma_map", "rx", start_ns=i * 10_000, duration_ns=5_000
        )
    for i in range(40):
        tracer.complete(
            "irq", "irq", start_ns=i * 2_000, duration_ns=250
        )
    tracer.complete(
        "invalidation", "rx", start_ns=500_000, duration_ns=90_000
    )
    tracer.instant("epoch_flip", "rx", ts_ns=123_000)
    return tracer.to_dict()


def test_digest_counts_and_order():
    digest = digest_trace(make_trace())
    assert digest.span_count == 51
    assert digest.instant_count == 1
    assert [k.kind for k in digest.kinds] == [
        "invalidation", "dma_map", "irq",
    ]  # ranked by total time, not count
    total = sum(k.total_us for k in digest.kinds)
    assert digest.total_us == pytest.approx(total)
    assert sum(k.share for k in digest.kinds) == pytest.approx(1.0)


def test_digest_per_kind_stats():
    digest = digest_trace(make_trace())
    dma = next(k for k in digest.kinds if k.kind == "dma_map")
    assert dma.count == 10
    assert dma.total_us == pytest.approx(50.0)  # 10 x 5000 ns
    assert dma.mean_us == pytest.approx(5.0)
    assert dma.p50_us == pytest.approx(5.0)
    assert dma.max_us == pytest.approx(5.0)
    # All identical durations land in one half-decade bin.
    assert list(dma.histogram.values()) == [10]
    (bin_idx,) = dma.histogram
    assert bin_center_us(bin_idx) == pytest.approx(5.0, rel=1.0)


def test_critical_path_rows_shape():
    digest = digest_trace(make_trace())
    rows = critical_path_rows(digest, limit=2)
    assert len(rows) == 2
    assert all(len(row) == len(CRITICAL_PATH_HEADERS) for row in rows)
    assert rows[0][0] == "invalidation"
    assert rows[0][3] > rows[1][3]  # share % descends


def test_digest_artifact_panels():
    artifact = digest_artifact(digest_trace(make_trace()), top=2)
    bars, hist = artifact.panels
    assert bars.kind == "bars"
    assert [bar.label for bar in bars.bars] == [
        "invalidation", "dma_map",
    ]
    assert hist.logx
    assert {s.label for s in hist.series} == {
        "invalidation", "dma_map",
    }
    assert "1 kinds omitted" not in artifact.footnote
    assert "3 kinds" in artifact.footnote


def test_digest_ignores_metadata_and_junk():
    doc = make_trace()
    doc["traceEvents"].append({"ph": "M", "name": "process_name"})
    doc["traceEvents"].append({"ph": "X", "name": "bad", "dur": True})
    doc["traceEvents"].append("not an event")
    digest = digest_trace(doc)
    assert digest.span_count == 51  # junk contributed nothing


def test_load_trace_validates(tmp_path):
    good = tmp_path / "trace.json"
    good.write_text(json.dumps(make_trace()))
    assert load_trace(str(good))["traceEvents"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="traceEvents"):
        load_trace(str(bad))


def test_capped_trace_warns_in_digest_and_index(monkeypatch):
    tracer = SpanTracer()
    with monkeypatch.context() as patch:
        patch.setattr("repro.obs.tracer.PHASE_EVENT_BUDGET", 3)
        for i in range(10):
            tracer.complete(
                "dma_map", "rx", start_ns=i * 1_000, duration_ns=5
            )
    capped = digest_trace(tracer.to_dict())
    assert capped.dropped_events == tracer.dropped_events > 0
    page = render_index(
        report={}, cards=[], trace_image="trace_digest.svg",
        trace_digest=capped,
    )
    assert f"{capped.dropped_events} events dropped" in page
    whole = digest_trace(make_trace())
    assert whole.dropped_events == 0
    page = render_index(
        report={}, cards=[], trace_image="trace_digest.svg",
        trace_digest=whole,
    )
    assert "events dropped" not in page
