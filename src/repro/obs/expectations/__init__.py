"""Per-figure expectation specs: the paper's claims, machine-readable.

One module per reproduced figure.  Each exports a single ``SPEC``
(:class:`repro.obs.expect.FigureSpec`) listing that figure's claims in
the expectation vocabulary.  ``SPECS`` maps CLI figure keys to specs —
``repro reproduce`` and the generated ``REPORT.md`` read from here, and
``tests/obs/test_specs_pinned.py`` pins them to the committed
``report.json``.

Paper-vs-ours context for every claim lives in ``EXPERIMENTS.md``;
deliberate deviations are encoded as the (looser) bounds asserted here
and documented there.

Spec modules may additionally export ``PAPER_CURVES`` — approximate
digitizations of the paper's plotted series, keyed by table column then
mode.  :func:`reference_curves` is their accessor: ``repro reproduce``
scores each figure's rows against them
(:func:`repro.obs.expect.paper_score`, the ``paper_score`` field of
``report.json`` and the score under each ``REPORT.md`` heading), and CI
gates the committed score byte for byte.  No claim reads them.
"""

from . import (
    fig2,
    fig3,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig11c,
    fig12,
    model,
)
from ..expect.engine import FigureSpec

__all__ = ["SPECS"]

_MODULES = (
    fig2,
    fig3,
    model,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig11c,
    fig12,
)

SPECS: dict[str, FigureSpec] = {
    module.SPEC.figure: module.SPEC for module in _MODULES
}

_BY_KEY = {module.SPEC.figure: module for module in _MODULES}


def reference_curves(
    figure: str,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """The paper's reference curves for one figure, or ``{}``.

    Shape: ``{column: {mode: [(x, y), ...]}}`` in the figure's own
    table units.  Figures without digitized curves (e.g. ``model``,
    whose paper prediction is already a table column) return ``{}``.
    """
    module = _BY_KEY.get(figure)
    if module is None:
        return {}
    curves = getattr(module, "PAPER_CURVES", {})
    return {
        column: {mode: list(points) for mode, points in by_mode.items()}
        for column, by_mode in curves.items()
    }
