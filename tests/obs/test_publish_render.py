"""Renderer smoke tests: structure assertions, never pixels.

The builtin SVG backend is asserted by parsing its XML (every mark
carries a CSS class).
"""

import xml.etree.ElementTree as ET

import pytest

from repro.obs.publish.figdata import (
    FigureArtifact,
    PanelData,
    Series,
    build_figure_artifact,
)
from repro.obs.publish.figspecs import PUBLISH_SPECS
from repro.obs.publish.svgbackend import render_figure_svg


def class_counts(path) -> dict:
    counts: dict[str, int] = {}
    for element in ET.parse(path).getroot().iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


@pytest.mark.parametrize("figure", sorted(PUBLISH_SPECS))
def test_svg_renders_every_figure(figure, make_section, tmp_path):
    artifact = build_figure_artifact(
        make_section(figure), PUBLISH_SPECS[figure]
    )
    out = tmp_path / f"{figure}.svg"
    info = render_figure_svg(artifact, str(out))
    assert out.stat().st_size > 0
    classes = class_counts(out)
    assert classes["panel"] == len(PUBLISH_SPECS[figure].panels)
    assert info["panels"] == classes["panel"]
    assert info["badges"] == 3
    # Claim chips always present (one pass + one fail chip).
    assert classes["badge-pass"] == 1
    assert classes["badge-fail"] == 1
    if PUBLISH_SPECS[figure].bars_by_mode:
        assert classes["bar"] == info["bars"] > 0
        assert classes["bar-value"] == classes["bar"]
    else:
        assert classes["series-ours"] >= 1
        assert info["series"] == (
            classes["series-ours"] + classes.get("series-paper", 0)
        )


def test_svg_paper_series_are_dashed(make_section, tmp_path):
    artifact = build_figure_artifact(
        make_section("fig2"), PUBLISH_SPECS["fig2"]
    )
    out = tmp_path / "fig2.svg"
    render_figure_svg(artifact, str(out))
    dashed = [
        el
        for el in ET.parse(out).getroot().iter()
        if el.get("class") == "series-paper"
    ]
    assert dashed
    assert all(el.get("stroke-dasharray") for el in dashed)


def test_svg_truncation_marker(make_section, tmp_path):
    section = make_section("fig2")
    section["truncated_phases"] = ["fig2 off flows=5"]
    artifact = build_figure_artifact(section, PUBLISH_SPECS["fig2"])
    out = tmp_path / "fig2.svg"
    render_figure_svg(artifact, str(out))
    assert class_counts(out).get("truncated") == 1
    assert "sample cap" in out.read_text()


def test_svg_handles_zero_values_on_log_axis(tmp_path):
    # A zero latency row must not crash the log-scale maths.
    artifact = FigureArtifact(
        name="degenerate",
        figure_id="Fig X",
        title="zeroes",
        panels=[
            PanelData(
                ylabel="us",
                xlabel="bytes",
                logx=True,
                logy=True,
                series=[
                    Series(
                        "off", [(64.0, 0.0), (128.0, 1.0)], "#2a78d6"
                    )
                ],
            )
        ],
    )
    out = tmp_path / "degenerate.svg"
    info = render_figure_svg(artifact, str(out))
    assert info["panels"] == 1
    content = out.read_text()
    assert "nan" not in content.lower()


def test_svg_empty_artifact_still_renders(tmp_path):
    artifact = FigureArtifact(
        name="empty", figure_id="Fig E", title="no data", panels=[]
    )
    out = tmp_path / "empty.svg"
    info = render_figure_svg(artifact, str(out))
    assert info == {"panels": 0, "series": 0, "bars": 0, "badges": 0}
    ET.parse(out)  # well-formed XML
