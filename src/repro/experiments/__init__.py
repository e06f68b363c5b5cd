"""Experiment runners: one table of figures, plus run-scale presets.

:data:`FIGURES` is the one figure registry: the CLI lists and runs
figures and studies from it, and ``repro reproduce`` derives its
runners from the entries that have an expectation spec.  Every paper
figure and study is a row of :data:`.figures.FIGURE_TABLE`, run by
:func:`.figures.sweep`; the fault sweep keeps its own runner.  Every
runner takes ``scale, seed, jobs, chunk`` as keywords.  The chaos
search (:mod:`.chaos`) is not re-exported here, so the figure commands
never import it.
"""

from functools import partial
from typing import Callable

from .faultsweep import fault_sweep, sweep_plans
from .figures import FIGURE_TABLE, FigureResult, sweep
from .settings import FULL, QUICK, RunScale

__all__ = [
    "FIGURES",
    "FIGURE_TABLE",
    "FigureResult",
    "sweep",
    "fault_sweep",
    "sweep_plans",
    "RunScale",
    "QUICK",
    "FULL",
]

# Figure key -> (runner, one-line description): the paper's figures in
# its order, then the studies beyond them, then the fault sweep.
FIGURES: dict[str, tuple[Callable, str]] = {
    **{
        key: (partial(sweep, figure), figure.description)
        for key, figure in FIGURE_TABLE.items()
    },
    "faults": (fault_sweep, "Fault sweep: throughput degrades, safety holds"),
}
