"""Shared fixtures for the publish pipeline tests.

Synthetic report sections are built from ``PUBLISH_SPECS`` so every
figure key gets plausible table data without running a sweep; the
tests assert structure (panel/series/badge counts, XML classes, exit
codes), never pixels.
"""

import json

import pytest

from repro.obs.publish.figspecs import PUBLISH_SPECS

MODES = ("off", "strict")
XS = (5.0, 10.0, 20.0)

MODEL_HEADERS = [
    "flows", "M", "measured_gbps", "paper_model_gbps", "paper_err%",
    "refit_model_gbps",
]


def _section_for(figure: str) -> dict:
    """A synthetic report section matching the figure's publish spec."""
    spec = PUBLISH_SPECS[figure]
    if spec.column_series:
        headers = list(MODEL_HEADERS)
        rows = [
            [x, 1.5, 80.0 - x, 86.0 - x, 5.0, 81.0] for x in XS
        ]
    else:
        headers = ["mode", "x"] + [p.y for p in spec.panels]
        if spec.bars_by_mode:
            rows = [
                ["off", 1] + [90.0 + i for i in range(len(spec.panels))],
                ["strict", 1] + [35.0 + i for i in range(len(spec.panels))],
                ["fns", 1] + [87.0 + i for i in range(len(spec.panels))],
            ]
        else:
            rows = [
                [mode, x]
                + [
                    (100.0 if mode == "off" else 50.0) - x + i
                    for i in range(len(spec.panels))
                ]
                for mode in MODES
                for x in XS
            ]
    return {
        "figure": figure,
        "figure_id": figure.replace("fig", "Fig "),
        "title": f"synthetic {figure}",
        "headers": headers,
        "rows": rows,
        "claims": [
            {
                "kind": "expect",
                "claim": "off beats strict",
                "paper": "yes",
                "observed": "yes",
                "status": "pass",
            },
            {
                "kind": "expect",
                "claim": "strict stays flat",
                "paper": "flat",
                "observed": "droops",
                "status": "fail",
            },
            {
                "kind": "expect",
                "claim": "needs full scale",
                "paper": "?",
                "observed": "skipped",
                "status": "skip",
            },
        ],
        "truncated_phases": [],
    }


@pytest.fixture
def make_section():
    return _section_for


@pytest.fixture
def make_report(tmp_path):
    """Factory writing a minimal valid report.json; returns its path."""

    def _make(figures=("fig2", "fig12"), filename="report.json"):
        docs = [_section_for(name) for name in figures]
        doc = {
            "schema": "repro.report/1",
            "provenance": {
                "git_sha": "feedc0ffee00" + "0" * 28,
                "scale": "quick",
                "seed": 1,
                "figures": list(figures),
                "config_hash": "abcd1234abcd1234",
            },
            "figures": docs,
            "summary": {
                "claims": 3 * len(docs),
                "passed": len(docs),
                "failed": len(docs),
                "skipped": len(docs),
            },
        }
        path = tmp_path / filename
        path.write_text(json.dumps(doc))
        return path

    return _make
