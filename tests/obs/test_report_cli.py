"""CLI surface: ``repro report`` and the global --trace."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def chdir_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_report_unknown_figure():
    assert main(["report", "nope"]) == 2


def test_report_writes_metrics_and_trace(chdir_tmp, capsys):
    metrics = chdir_tmp / "m.json"
    trace = chdir_tmp / "t.json"
    status = main(
        [
            "report",
            "fig12",
            "--out",
            str(metrics),
            "--trace",
            str(trace),
            "--interval-ns",
            "200000",
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


def test_global_trace_flag(chdir_tmp):
    trace = chdir_tmp / "run_trace.json"
    assert main(["fig12", "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
