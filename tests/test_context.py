"""The run context decides every shortcut, in one place.

A matrix over what a run may carry -- nothing, an invariant monitor, a
fault runtime, a tracer -- checks that each shortcut takes exactly the
value the two context properties define:

* ``per_call`` off: the IOMMU may translate a page's TLPs as one burst
  (``Iommu.per_call``, read once at construction);
* ``in_process`` off: ``run_points`` may fan out to the pool and may
  serve cells from the result cache.

With nothing installed every shortcut is on.
"""

import os

import pytest

from repro.cache.store import ResultCache
from repro.context import RunContext, current_context, using
from repro.experiments.points import POINT_RUNNERS
from repro.experiments.settings import QUICK
from repro.faults import FaultPlan, FaultRuntime
from repro.iommu import Iommu, IommuConfig
from repro.mem import PhysicalMemory
from repro.obs import MetricsRegistry, SpanTracer
from repro.parallel import PointSpec, run_points
from repro.parallel.pool import _ensure_pool, shutdown_pool
from repro.protection import DeferredDriver, StrictFamilyDriver
from repro.verify import InvariantMonitor


def _empty_faults():
    return FaultRuntime(FaultPlan(seed=1, name="empty", specs=()))


# name -> (fields to install, expected per_call, expected in_process)
MATRIX = {
    "nothing": (dict, False, False),
    "monitor": (lambda: {"monitor": InvariantMonitor()}, True, True),
    "faults": (lambda: {"faults": _empty_faults()}, True, True),
    "tracer": (
        lambda: {"registry": MetricsRegistry(tracer=SpanTracer())},
        False,
        True,
    ),
}


@pytest.fixture(params=sorted(MATRIX))
def case(request):
    fields, per_call, in_process = MATRIX[request.param]
    return fields(), per_call, in_process


def _pid_point(spec, scale):
    return os.getpid()


@pytest.fixture()
def pid_runner():
    POINT_RUNNERS["t-context-pid"] = _pid_point
    yield "t-context-pid"
    POINT_RUNNERS.pop("t-context-pid", None)


def specs_for(runner, count=4):
    return [
        PointSpec(
            figure="T",
            runner=runner,
            mode="off",
            x=x,
            label=f"T off x={x}",
            seed=x,
        )
        for x in range(count)
    ]


def test_properties(case):
    fields, per_call, in_process = case
    with using(**fields) as context:
        assert context.per_call is per_call
        assert context.in_process is in_process


def test_iommu_shortcuts_follow_per_call(case):
    # Only the context decides: a fault-reporting queue or the
    # deferred driver's stale-hit checks leave the burst on.
    fields, per_call, _ = case
    with using(**fields):
        iommus = [
            Iommu(),
            Iommu(IommuConfig(fault_queue=True)),
            DeferredDriver(Iommu(), PhysicalMemory(1 << 16), num_cpus=2).iommu,
        ]
    assert iommus[2].check_stale_hits
    assert [iommu.per_call for iommu in iommus] == [per_call] * 3


@pytest.mark.parametrize(
    "factory", [StrictFamilyDriver.linux_strict, DeferredDriver]
)
def test_driver_burst_follows_per_call(case, factory, monkeypatch):
    fields, per_call, _ = case
    with using(**fields):
        driver = factory(Iommu(), PhysicalMemory(1 << 16), num_cpus=2)
    descriptor, _ = driver.make_rx_descriptor(core=0, pages=1)
    calls = []
    translate = Iommu.translate

    def counted(iommu, iova, source="rx"):
        calls.append(iova)
        return translate(iommu, iova, source)

    monkeypatch.setattr(Iommu, "translate", counted)
    iova = descriptor.slots[0].iova
    assert driver.translate_for_dma(iova, "rx", 4, 1024) == 4
    expected = [iova, iova + 1024, iova + 2048, iova + 3072]
    assert calls == (expected if per_call else expected[:1])


def test_pool_fallback_follows_in_process(case, pid_runner):
    fields, _, in_process = case
    with using(**fields):
        pids = run_points(specs_for(pid_runner), QUICK, jobs=2)
    ran_here = [pid == os.getpid() for pid in pids]
    assert ran_here == [in_process] * len(pids)


def test_cache_bypass_follows_in_process(case, pid_runner, tmp_path):
    fields, _, in_process = case
    cache = ResultCache(str(tmp_path / "store"))
    with using(cache=cache, **fields):
        run_points(specs_for(pid_runner), QUICK)
    consulted = cache.stats.hits + cache.stats.misses
    assert consulted == (0 if in_process else 4)


def test_using_restores_the_previous_context():
    before = current_context()
    outer_registry, inner_registry = MetricsRegistry(), MetricsRegistry()
    with using(monitor=InvariantMonitor(), registry=outer_registry):
        with using(registry=inner_registry) as inner:
            assert inner.monitor is not None
            assert inner.registry is inner_registry
        assert current_context().registry is outer_registry
    assert current_context() is before


def _worker_context(_):
    return current_context() == RunContext()


def test_forked_worker_starts_with_empty_context(tmp_path):
    shutdown_pool()
    try:
        with using(
            registry=MetricsRegistry(),
            monitor=InvariantMonitor(),
            faults=_empty_faults(),
            cache=ResultCache(str(tmp_path / "store")),
        ):
            pool = _ensure_pool(1)
            assert pool.submit(_worker_context, None).result()
    finally:
        shutdown_pool()
