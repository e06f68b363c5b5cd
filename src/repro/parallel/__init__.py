"""Process-pool execution of independent sweep points.

A figure sweep is a grid of (mode, x) cells, each a self-contained
simulation with its own testbed and clock — embarrassingly parallel.
This package fans those cells across worker processes while keeping the
results *byte-identical* to a serial run:

* every cell is described declaratively by a picklable
  :class:`~repro.parallel.spec.PointSpec` (figure, runner key, mode, x,
  phase label, derived seed);
* per-point seeds come from :func:`~repro.parallel.seeds.derive_seed`,
  a pure function of (root seed, figure, mode, x), so a point's
  stochastic inputs do not depend on which process runs it or in what
  order;
* workers record each point's metrics in a fresh single-phase registry
  and ship the phase back; the parent adopts the phases in sweep order
  (:meth:`~repro.obs.registry.MetricsRegistry.adopt_phase`), so
  ``report()`` and the generated reports match a serial run row for row.

``run_points`` is the single entry point; ``--jobs N`` on the CLI
routes every sweep (figures, reproduce, faults) through it.
"""

from .seeds import derive_seed
from .spec import PointSpec
from .pool import (
    RemotePointError,
    pool_forks,
    run_points,
    shutdown_pool,
)

__all__ = [
    "PointSpec",
    "RemotePointError",
    "derive_seed",
    "pool_forks",
    "run_points",
    "shutdown_pool",
]
