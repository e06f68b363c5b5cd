"""Property-based safety tests across protection modes.

The strict safety property ([Markuze et al. 2018], paper §3): once an
IOVA is unmapped, a malicious or buggy device can no longer access the
physical page it pointed to.  These tests drive arbitrary descriptor
lifecycles and check the property holds at every retire point for
every strict-family configuration — and that deferred mode genuinely
violates it (which is why the paper refuses that mode).
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iommu import Iommu, IommuConfig
from repro.mem import PhysicalMemory
from repro.protection import DeferredDriver, StrictFamilyDriver, deferred

FLAG_COMBOS = [
    (False, False),  # linux strict
    (True, False),  # + preserve (A)
    (False, True),  # + contiguous/batched (B)
    (True, True),  # F&S
]


def make_driver(flags):
    preserve, contiguous = flags
    iommu = Iommu(IommuConfig())
    driver = StrictFamilyDriver(
        iommu,
        PhysicalMemory(1 << 18),
        num_cpus=2,
        preserve_ptcache=preserve,
        contiguous_iova=contiguous,
    )
    return driver, iommu


@st.composite
def descriptor_lifecycles(draw):
    """A sequence of descriptor make/consume/retire steps with
    interleaved Tx mappings, with a subset of pages device-accessed."""
    steps = draw(st.integers(min_value=1, max_value=6))
    script = []
    for _ in range(steps):
        touch_mask = draw(st.integers(min_value=0, max_value=(1 << 16) - 1))
        tx_count = draw(st.integers(min_value=0, max_value=4))
        script.append((touch_mask, tx_count))
    return script


@given(
    flags=st.sampled_from(FLAG_COMBOS),
    script=descriptor_lifecycles(),
)
@settings(max_examples=40, deadline=None)
def test_strict_property_holds_at_every_retire(flags, script):
    driver, _iommu = make_driver(flags)
    for touch_mask, tx_count in script:
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for index, slot in enumerate(descriptor.slots):
            if touch_mask & (1 << (index % 16)):
                driver.translate_for_dma(slot.iova, "rx")
            descriptor.take_run(1)
            descriptor.dma_done()
        tx_mappings = []
        for _ in range(tx_count):
            mapping, _ = driver.map_tx_page(core=1)
            driver.translate_for_dma(mapping.iova, "tx_ack")
            tx_mappings.append(mapping)
        driver.retire_rx_descriptor(descriptor, core=0)
        # THE property: no page of the retired descriptor is reachable.
        for slot in descriptor.slots:
            assert not driver.device_can_access(slot.iova)
        if tx_mappings:
            driver.retire_tx_pages(tx_mappings, core=1)
            for mapping in tx_mappings:
                assert not driver.device_can_access(mapping.iova)


@given(script=descriptor_lifecycles())
@settings(max_examples=20, deadline=None)
def test_deferred_mode_violates_the_property(script):
    """If any page was device-touched, deferred mode leaves a window
    where the device can still reach it after retire."""
    iommu = Iommu(IommuConfig())
    with mock.patch.object(deferred, "FLUSH_THRESHOLD", 10**9):
        driver = DeferredDriver(iommu, PhysicalMemory(1 << 18), num_cpus=2)
    any_touched = False
    violation_seen = False
    for touch_mask, _tx in script:
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=8)
        touched = []
        for index, slot in enumerate(descriptor.slots):
            if touch_mask & (1 << (index % 16)):
                driver.translate_for_dma(slot.iova, "rx")
                touched.append(slot)
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
        any_touched = any_touched or bool(touched)
        if any(driver.device_can_access(slot.iova) for slot in touched):
            violation_seen = True
    if any_touched:
        assert violation_seen
    # The flush closes every window.
    driver.flush()
    assert driver.pending_invalidations == 0


@given(
    flags=st.sampled_from(FLAG_COMBOS),
    pages_touched=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=30, deadline=None)
def test_no_iova_leaks_across_lifecycles(flags, pages_touched):
    """Allocator conservation: after retire, re-making descriptors
    never collides with live mappings (the page table stays
    consistent)."""
    driver, iommu = make_driver(flags)
    for _round in range(3):
        descriptor, _ = driver.make_rx_descriptor(core=0, pages=64)
        for index in range(pages_touched):
            driver.translate_for_dma(descriptor.slots[index].iova, "rx")
        for _ in range(64):
            descriptor.take_run(1)
            descriptor.dma_done()
        driver.retire_rx_descriptor(descriptor, core=0)
    assert iommu.page_table.mapped_pages == 0
