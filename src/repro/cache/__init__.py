"""Content-addressed result cache for sweep cells.

``repro reproduce`` is fully deterministic: a cell's output is a pure
function of its :class:`~repro.parallel.spec.PointSpec` coordinates,
its derived seed, the run scale, the observation shape and the code
that runs it.  This package keys each cell on those inputs, the code
as one digest of the whole ``repro`` source tree
(:mod:`repro.cache.store`), so an unchanged cell is served from an
on-disk store instead of re-simulated — the same
redundant-work-on-unchanged-input structure the paper's IOTLB/PTcache
attacks, applied to the reproduction pipeline itself.

The cache rides the run context, like the metrics registry and
invariant monitor (:mod:`repro.context`): ``with using(cache=cache):
...`` makes :func:`repro.parallel.run_points` consult the store before
dispatching any cell, on the serial, ``--jobs N`` and chunked paths
alike.
"""

from .store import CacheStats, ResultCache, default_cache_dir, tree_fingerprint

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "tree_fingerprint",
]
