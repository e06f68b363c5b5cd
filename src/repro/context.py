"""The run context: what is attached to the run being built.

One frozen :class:`RunContext` names everything a run may carry beside
its configuration: the metrics registry (:mod:`repro.obs`), the
invariant monitor (:mod:`repro.verify`), the fault runtime
(:mod:`repro.faults`) and the result cache (:mod:`repro.cache`).

Instrumented classes read :func:`current_context` once at construction
and keep what they need in an attribute (``obs``, ``monitor``,
``faults``).  Every per-event use is guarded by ``if self.obs is not
None``, so with nothing installed the instrumentation costs one
attribute load and a pointer comparison.  Objects built outside a
:func:`using` block never see what the block installs.

The two properties below are the only place that decides whether a
shortcut may run: burst translation
(:meth:`~repro.iommu.Iommu.translate_page`) needs
:attr:`RunContext.per_call` off, and the sweep executor's pool and
result cache need :attr:`RunContext.in_process` off.  The IOMMU reads
``per_call`` once, in its constructor; nothing else consults it.

This module is a leaf: it imports nothing from ``repro`` at run time,
so every instrumented module can import it without cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .cache.store import ResultCache
    from .faults.injectors import ComponentInjector
    from .faults.runtime import FaultRuntime
    from .obs.registry import MetricsRegistry
    from .verify.monitor import InvariantMonitor

__all__ = ["RunContext", "current_context", "reset_context", "using"]


@dataclasses.dataclass(frozen=True)
class RunContext:
    """The observers and stores attached to a run; all off by default."""

    registry: Optional[MetricsRegistry] = None
    monitor: Optional[InvariantMonitor] = None
    faults: Optional[FaultRuntime] = None
    cache: Optional[ResultCache] = None

    @property
    def per_call(self) -> bool:
        """A monitor or fault runtime sees every call: none may be batched."""
        return self.monitor is not None or self.faults is not None

    @property
    def in_process(self) -> bool:
        """State lives in this process: run sweeps serially, uncached.

        The monitor and fault runtime are process state the caller
        interrogates afterwards; a tracer's spans cannot be merged
        across processes or replayed from a store.
        """
        return self.per_call or (
            self.registry is not None and self.registry.tracer is not None
        )

    def injector(self, component: str) -> Optional[ComponentInjector]:
        """The fault injector for ``component``, or ``None``."""
        if self.faults is None:
            return None
        return self.faults.injector(component)


_CURRENT = RunContext()


def current_context() -> RunContext:
    """The installed context (read once, at construction)."""
    return _CURRENT


def reset_context() -> None:
    """Install the empty context: a forked worker's first act."""
    global _CURRENT
    _CURRENT = RunContext()


@contextlib.contextmanager
def using(**fields: Any) -> Iterator[RunContext]:
    """Install the current context with ``fields`` replaced, for a block.

    Objects constructed inside the block attach to what it installs;
    the previous context comes back on exit.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = dataclasses.replace(previous, **fields)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous
