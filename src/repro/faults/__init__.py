"""Deterministic, seed-driven fault injection for the simulation.

The package splits into a declarative layer and a live layer:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  JSON round-trippable descriptions of what breaks, when, how often;
* :mod:`repro.faults.runtime` / :mod:`repro.faults.injectors` — the
  :class:`FaultRuntime` installed on the run context
  (``with using(faults=FaultRuntime(plan)):``, :mod:`repro.context`),
  handing each injection site (invalidation queue, PCIe pipeline, NIC,
  switch port) a seeded injector and collecting the ordered fault
  timeline.  Sites look up their injector once at construction, so an
  uninstalled runtime costs nothing.

The safety contract, enforced by the ``tests/faults`` suite under the
:class:`~repro.verify.InvariantMonitor`: injected faults may cost
throughput, never DMA safety.
"""

from .injectors import (
    ComponentInjector,
    InvalidationInjector,
    IommuInjector,
    NetInjector,
    NicInjector,
    PcieInjector,
)
from .plan import HARD_KINDS, KINDS_BY_COMPONENT, FaultPlan, FaultSpec
from .runtime import FaultRecord, FaultRuntime

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "HARD_KINDS",
    "KINDS_BY_COMPONENT",
    "FaultRecord",
    "FaultRuntime",
    "ComponentInjector",
    "InvalidationInjector",
    "PcieInjector",
    "NicInjector",
    "NetInjector",
    "IommuInjector",
]
