"""``repro publish`` end to end: exit codes, outputs, the index."""

import json

import pytest

from repro.cli import main as repro_main
from repro.obs import SpanTracer


def publish_main(argv):
    return repro_main(["publish", *argv])


@pytest.fixture
def trace_file(tmp_path):
    tracer = SpanTracer()
    for i in range(5):
        tracer.complete(
            "dma_map", "rx", start_ns=i * 1_000, duration_ns=400
        )
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    return path


def publish(tmp_path, make_report, trace_file, *extra):
    """Run publish from a fixture report + trace; returns (code, out)."""
    report = make_report()
    outdir = tmp_path / "out"
    argv = [
        str(outdir),
        "--from-report", str(report),
        "--trace", str(trace_file),
        "--figures", "fig2,fig12",
        *extra,
    ]
    return publish_main(argv), outdir


def test_publish_produces_gallery(tmp_path, make_report, trace_file):
    code, outdir = publish(tmp_path, make_report, trace_file)
    assert code == 0
    for name in (
        "index.html", "report.json", "fig2.svg", "fig12.svg",
        "trace_digest.svg", "trace_digest.json",
    ):
        assert (outdir / name).stat().st_size > 0, name
    page = (outdir / "index.html").read_text()
    assert "fig2.svg" in page
    assert "fig12.svg" in page
    assert "report.json" in page
    assert "feedc0ffee00" in page  # provenance sha surfaced
    digest = json.loads((outdir / "trace_digest.json").read_text())
    assert digest["schema"] == "repro.trace-digest/1"
    assert digest["span_count"] == 5


def test_unknown_figure_exits_2(tmp_path, make_report, capsys):
    code = publish_main(
        [str(tmp_path / "out"), "--figures", "fig99",
         "--from-report", str(make_report())]
    )
    assert code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_bad_report_exits_2(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps({"schema": "nope/9"}))
    code = publish_main(
        [str(tmp_path / "out"), "--from-report", str(bad)]
    )
    assert code == 2
    assert "schema" in capsys.readouterr().err


def test_figure_missing_from_report_is_skipped(
    tmp_path, make_report, trace_file, capsys
):
    report = make_report(figures=("fig2",))
    outdir = tmp_path / "out"
    code = publish_main(
        [str(outdir), "--from-report", str(report),
         "--trace", str(trace_file), "--figures", "fig2,fig9"]
    )
    assert code == 0
    assert (outdir / "fig2.svg").exists()
    assert not (outdir / "fig9.svg").exists()
    assert "fig9" in capsys.readouterr().out


def test_report_json_is_copied_verbatim_content(
    tmp_path, make_report, trace_file
):
    code, outdir = publish(tmp_path, make_report, trace_file)
    assert code == 0
    original = json.loads(make_report().read_text())
    published = json.loads((outdir / "report.json").read_text())
    assert published == original


def test_repro_cli_dispatches_publish(
    tmp_path, make_report, trace_file
):
    outdir = tmp_path / "via-main"
    code = repro_main(
        ["publish", str(outdir), "--from-report", str(make_report()),
         "--trace", str(trace_file), "--figures", "fig2"]
    )
    assert code == 0
    assert (outdir / "index.html").exists()


def test_publish_help_mentions_formats(capsys):
    # SVG is the one format, so it is named in the help, not an option.
    assert publish_main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "SVG" in out
    assert "--format" not in out
    assert "--style" not in out
    assert "--trace" in out


def test_without_trace_writes_no_digest(tmp_path, make_report, capsys):
    # Publish records no trace of its own: without --trace it renders
    # the report, writes no digest files and says so in the index.
    outdir = tmp_path / "out"
    code = publish_main(
        [str(outdir), "--from-report", str(make_report()),
         "--figures", "fig2"]
    )
    assert code == 0
    assert (outdir / "fig2.svg").stat().st_size > 0
    assert not list(outdir.glob("trace_digest.*"))
    assert "no trace recorded" in (outdir / "index.html").read_text()
    assert "trace:" not in capsys.readouterr().out
