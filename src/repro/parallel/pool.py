"""The sweep executor: one spec-order loop over every cell of a sweep.

Execution model:

* The parent builds the full :class:`~repro.parallel.spec.PointSpec`
  list (including any per-point payloads such as fault plans), so every
  input is fixed before any process runs — scheduling order cannot leak
  into results.
* With a result cache on the run context, every cell's key is computed
  up front and the hits (warm cells) are loaded; only the misses (cold
  cells) run.  They come from one of two generators, each yielding
  ``(value, phase payload)`` in spec order: in process, each cell runs
  lazily with its phase opened on the parent registry; pooled, cells
  ride to workers in **chunks** (``chunk`` on the CLI; auto-sized to
  two chunks per worker).  Per-point dispatch made ``--jobs 2`` sweeps
  *slower* than serial (the regression this design fixes) because
  every point paid a round of future bookkeeping and payload pickling.
* One loop walks the specs, adopting each warm or pooled cell's phase
  and storing each cold cell, so the phase list, indices and ``#N``
  scope names are identical whatever the cache temperature, ``jobs``
  or ``chunk``.
* The pool itself is **persistent and warm**: one forked
  ``ProcessPoolExecutor`` per CLI invocation (created on first parallel
  sweep, reused by every later one), with an initializer that pre-imports
  the runner registry and installs the empty run context
  (:mod:`repro.context`), so no worker sees the registry, monitor,
  fault runtime or cache the parent had at fork time.  Forking *after*
  the parent has run serial work means workers inherit every
  process-level cache the parent has paid for (imports, specialized
  bytecode) via copy-on-write — which is how a warm pool beats a serial sweep even on
  a single usable CPU.  The pool is re-forked only if a later sweep
  needs more workers or the runner registry changed (tests register
  scratch runners; forked workers must see them).

In-process fallbacks (silent, by design — ``--jobs`` is best-effort):
at most one cold cell, or a run context whose
:attr:`~repro.context.RunContext.in_process` is set — an installed
tracer (spans cannot be merged across processes), invariant monitor or
fault runtime (process-local state the sweep's caller expects to
interrogate afterwards).  The same property makes the sweep skip the
result cache.  Fault *rows* still parallelize: their monitors and plans
are installed inside the point runner, in the worker.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..context import RunContext, current_context, reset_context, using
from ..obs.registry import MetricsRegistry
from ..verify.violation import InvariantViolation
from .spec import PointSpec, RemotePointError, remote_error_payload

if TYPE_CHECKING:  # imported lazily at runtime (circular with experiments)
    from ..experiments.settings import RunScale

__all__ = [
    "run_points",
    "RemotePointError",
    "shutdown_pool",
    "pool_forks",
]


def _runner_for(key: str):
    # Imported lazily: repro.experiments imports this package for its
    # sweep executors, so a module-level import would be circular.
    from ..experiments.points import POINT_RUNNERS

    try:
        return POINT_RUNNERS[key]
    except KeyError:
        raise KeyError(
            f"unknown point runner {key!r}; "
            f"registered: {sorted(POINT_RUNNERS)}"
        ) from None


def _run_point(spec: PointSpec, scale: RunScale):
    """Run one cell, then free what it left behind.

    A finished testbed is a large cyclic object graph that only the
    cycle collector can free.  Finalizing the cell's metrics phase
    drops the read callables that would keep it reachable, and
    collecting then bounds a sweep's peak memory by one cell, instead
    of by however many dead testbeds pile up before the collector's
    own schedule (which shifts with any change to allocation counts)
    next runs a full pass.
    """
    value = _runner_for(spec.runner)(spec, scale)
    registry = current_context().registry
    if registry is not None and registry.phases:
        registry.phases[-1].finalize()
    gc.collect()
    return value


def _usable_cpus() -> int:
    """CPUs this process may actually run on (cpuset-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# The persistent warm pool (one per CLI invocation)
# ---------------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_TOKEN: tuple = ()
_POOL_FORKS = 0


def _warm_worker() -> None:
    """Worker initializer: pre-import the runners, drop the inherited context.

    Runs once per forked worker.  The import is effectively free (the
    parent already imported everything; fork shares the pages) but
    guarantees a worker spawned by a spawn-method interpreter would
    still find the registry.  The context is emptied at birth so no
    chunk ever sees the parent's registry, monitor, fault runtime or
    cache.
    """
    from ..experiments import points  # noqa: F401  (registry side effect)

    reset_context()


def _runners_token() -> tuple:
    from ..experiments.points import POINT_RUNNERS

    return tuple(sorted(POINT_RUNNERS))


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)forked only when it cannot serve this sweep.

    A forked worker snapshots the parent at fork time, so the pool must
    be rebuilt when the runner registry has changed since (scratch
    runners registered by tests would otherwise be unknown in the
    workers).  Needing *fewer* workers than the pool has is fine —
    excess workers idle.
    """
    global _POOL, _POOL_WORKERS, _POOL_TOKEN, _POOL_FORKS
    token = _runners_token()
    if _POOL is not None and (
        _POOL_WORKERS < workers or _POOL_TOKEN != token
    ):
        shutdown_pool()
    if _POOL is None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_warm_worker,
        )
        _POOL_WORKERS = workers
        _POOL_TOKEN = token
        _POOL_FORKS += 1
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared pool (end of CLI invocation / tests)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None


def pool_forks() -> int:
    """How many times a pool has been forked in this process.

    Regression guard: back-to-back sweeps in one CLI invocation must
    reuse one pool, not pay fork + warmup per sweep call.
    """
    return _POOL_FORKS


# ---------------------------------------------------------------------------
# The two sources of cold cells, each yielding (value, phase payload)
# ---------------------------------------------------------------------------
def _in_process(
    specs: Sequence[PointSpec],
    scale: RunScale,
    registry: Optional[MetricsRegistry],
    payloads: bool,
) -> Iterator[tuple]:
    """Run each cell here, lazily, with its phase opened on ``registry``.

    Laziness keeps spec order: the caller adopts a warm cell's phase
    between two cold cells by not asking for the next one yet.  The
    payload (the finished phase) is taken only if ``payloads`` asks.
    """
    for spec in specs:
        if registry is not None:
            registry.begin_phase(spec.label)
        value = _run_point(spec, scale)
        payload = None
        if payloads and registry is not None:
            payload = registry.phases[-1].to_dict()
        yield value, payload


def _execute_chunk(
    specs: Sequence[PointSpec],
    scale: RunScale,
    collect: bool,
    sample_interval_ns: Optional[float],
) -> tuple:
    """One worker task: ``(outputs, error)`` for a chunk of points.

    The points run like an in-process sweep, under one fresh registry
    when the parent observes.  A violation stops the chunk; its error
    payload ships beside the outputs completed before it, whose phases
    the parent adopts before raising.  Module-level so it pickles under
    any multiprocessing start method.
    """
    registry = (
        MetricsRegistry(sample_interval_ns=sample_interval_ns)
        if collect else None
    )
    outputs: list = []
    try:
        with using(registry=registry):
            for output in _in_process(specs, scale, registry, True):
                outputs.append(output)
    except InvariantViolation as violation:
        label = specs[len(outputs)].label
        return (outputs, remote_error_payload(label, violation))
    return (outputs, None)


def _pooled(
    specs: Sequence[PointSpec],
    scale: RunScale,
    registry: Optional[MetricsRegistry],
    workers: int,
    chunk: Optional[int],
) -> Iterator[tuple]:
    """Fan cells across the warm pool; yield their outputs in spec order.

    Its first step submits every chunk; futures are then consumed in
    spec order, not completion order.  A chunk that stopped on a
    violation yields the outputs it completed, then raises
    :class:`RemotePointError`.
    """
    chunk_size = chunk or -(-len(specs) // (2 * workers))
    collect = registry is not None
    interval = registry.sample_interval_ns if collect else None
    pool = _ensure_pool(workers)
    futures = [
        pool.submit(
            _execute_chunk,
            specs[start:start + chunk_size],
            scale,
            collect,
            interval,
        )
        for start in range(0, len(specs), chunk_size)
    ]
    for future in futures:
        outputs, error = future.result()
        yield from outputs
        if error is not None:
            raise RemotePointError(*error)


# ---------------------------------------------------------------------------
# Content-addressed result cache (repro.cache) integration
# ---------------------------------------------------------------------------
def _cache_bypassed(specs: Sequence[PointSpec], context: RunContext) -> bool:
    """Sweeps the cache must not intercept.

    Payload-carrying cells (fault plans, chaos schedules) are runs whose
    *side observations* matter; an in-process context (tracer, monitor,
    fault runtime) holds state the cached value does not carry.
    """
    return context.in_process or any(
        spec.payload is not None for spec in specs
    )


def _stored_payload(payload: Optional[dict]) -> Optional[dict]:
    """The payload with its index zeroed: the same whichever slot ran it."""
    return None if payload is None else dict(payload, index=0)


def run_points(
    specs: Sequence[PointSpec],
    scale: RunScale,
    *,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> list:
    """Run every spec and return their values in spec order.

    Warm cells come from the run context's result cache; cold cells run
    in process for ``jobs`` of ``None``, 0 or 1, else across the shared
    warm pool, capped at the process's usable CPU count
    (oversubscribing a cpuset-limited container buys nothing but
    scheduler thrash).  ``chunk`` sets how many consecutive cells ride
    in one worker task; ``None`` auto-sizes to two chunks per worker.
    Values, metric phases and labels are identical for every
    combination.

    An in-process invariant violation propagates as the
    :class:`~repro.verify.InvariantViolation` itself; a worker's raises
    :class:`RemotePointError`.  Any other worker exception propagates
    as-is.
    """
    specs = list(specs)
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    context = current_context()
    registry = context.registry
    cache = None if _cache_bypassed(specs, context) else context.cache
    keys: list[str] = []
    warm: dict[int, tuple] = {}
    if cache is not None:
        keys = [
            cache.key_for(
                spec,
                scale,
                collect=registry is not None,
                sample_interval_ns=(
                    None if registry is None else registry.sample_interval_ns
                ),
            )
            for spec in specs
        ]
        for index, key in enumerate(keys):
            entry = cache.load(key)
            if entry is not None:
                warm[index] = entry
    cold = [spec for index, spec in enumerate(specs) if index not in warm]
    pooled = min(jobs or 1, len(cold)) > 1 and not context.in_process
    if pooled:
        workers = min(jobs or 1, len(cold), _usable_cpus())
        outputs = _pooled(cold, scale, registry, workers, chunk)
    else:
        outputs = _in_process(cold, scale, registry, cache is not None)
    values: list = []
    for index, spec in enumerate(specs):
        if index in warm:
            value, payload = warm[index]
        else:
            value, payload = next(outputs)
            if cache is not None:
                cache.store(
                    keys[index], value, _stored_payload(payload), spec=spec
                )
        # An in-process cell's phase is already on the registry.
        adopt = pooled or index in warm
        if adopt and registry is not None and payload is not None:
            registry.adopt_phase(payload)
        values.append(value)
    return values
