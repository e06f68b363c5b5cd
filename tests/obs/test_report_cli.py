"""CLI surface: ``repro run --metrics`` and ``--trace``."""

import json

import pytest

from repro.cli import main
from repro.experiments import RunScale

MICRO = RunScale(
    name="micro",
    warmup_ns=800_000.0,
    measure_ns=1_500_000.0,
    latency_measure_ns=3_000_000.0,
)


@pytest.fixture()
def chdir_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_report_unknown_figure():
    assert main(["run", "nope", "--metrics", "m.json"]) == 2


def test_report_writes_metrics_and_trace(chdir_tmp, capsys):
    metrics = chdir_tmp / "m.json"
    trace = chdir_tmp / "t.json"
    status = main(
        [
            "run",
            "fig12",
            "--metrics",
            str(metrics),
            "--trace",
            str(trace),
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "translations" in out  # summary table rendered

    doc = json.loads(metrics.read_text())
    assert doc["schema"] == "repro.obs/1"
    assert len(doc["phases"]) >= 2  # one per ablation mode
    labels = [phase["label"] for phase in doc["phases"]]
    assert any("Fig 12" in label for label in labels)
    strict = doc["phases"][0]
    assert strict["final"]["iommu.translations"] > 0
    assert len(strict["samples"]["t_ns"]) > 0

    trace_doc = json.loads(trace.read_text())
    events = trace_doc["traceEvents"]
    assert trace_doc["displayTimeUnit"] == "ns"
    assert any(e["ph"] == "X" and e["name"] == "dma" for e in events)
    # Phases land in distinct Chrome-trace processes.
    assert len({e["pid"] for e in events}) >= 2


def test_metrics_without_trace_records_no_spans(
    chdir_tmp, capsys, monkeypatch
):
    # A tracer exists only under --trace: a pooled metrics run keeps
    # the registry (worker phases are adopted) and writes no trace.
    monkeypatch.setattr("repro.cli.QUICK", MICRO)
    metrics = chdir_tmp / "m.json"
    assert main(["fig12", "--jobs", "2", "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "trace:" not in out
    doc = json.loads(metrics.read_text())
    assert doc["phases"][0]["final"]["iommu.translations"] > 0
    assert sorted(p.name for p in chdir_tmp.iterdir()) == ["m.json"]


def test_global_trace_flag(chdir_tmp):
    trace = chdir_tmp / "run_trace.json"
    assert main(["fig12", "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
