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
* one loop in ``run_points`` walks the specs in order for every cell,
  cached or not, in process or pooled: it adopts each warm (stored) or
  pooled (worker-recorded) metrics phase
  (:meth:`~repro.obs.registry.MetricsRegistry.adopt_phase`) and stores
  each cold cell, so ``report()`` and the generated reports match a
  serial uncached run row for row.

``run_points`` is the single entry point; ``--jobs N`` on the CLI
routes every sweep (figures, reproduce, faults, chaos) through it.
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
