"""Publication pipeline: figures, trace digest, HTML gallery.

``repro publish out/`` renders the ``report.json`` that ``repro
reproduce`` wrote: every reproduced figure as a
publication chart (paper reference curves overlaid, claim-verdict
badges attached) and a span-trace digest, tied together by a
browsable ``index.html``::

    from repro.obs.publish import build_figure_artifact, PUBLISH_SPECS

Module map — data flows top to bottom:

* :mod:`.figspecs` / :mod:`.figdata` — per-figure panel layouts and
  the backend-independent artifact model;
* :mod:`.tracedigest` — the span-trace digest dashboard;
* :mod:`.style` — palette and typography;
* :mod:`.svgbackend` — the renderer (stdlib-only SVG);
* :mod:`.htmlindex` / :mod:`.cli` — the gallery page and the
  ``repro publish`` command, which loads the report document.
"""

from .figdata import (
    Badge,
    Bar,
    FigureArtifact,
    PanelData,
    Series,
    build_figure_artifact,
)
from .figspecs import PUBLISH_SPECS, PanelSpec, PublishSpec
from .style import MODE_COLORS, series_color
from .svgbackend import render_figure_svg
from .tracedigest import TraceDigest, digest_trace

__all__ = [
    "Badge",
    "Bar",
    "FigureArtifact",
    "PanelData",
    "Series",
    "build_figure_artifact",
    "PUBLISH_SPECS",
    "PanelSpec",
    "PublishSpec",
    "MODE_COLORS",
    "series_color",
    "render_figure_svg",
    "TraceDigest",
    "digest_trace",
]
