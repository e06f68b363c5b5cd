"""Regression: per-page invalidation must drop covering 2 MB IOTLB entries.

The bug: a one-page IOTLB invalidation only probed the 4 KB array, so a
covering huge entry survived a strict-mode per-page unmap+invalidate —
the device kept a live translation for the whole retired 2 MB region.

Three angles:

1. the fixed IOTLB drops the huge entry (unit regression, in
   ``tests/iommu/test_iotlb.py``);
2. the invariant monitor *flags* the stale-huge case on the unfixed
   drop logic (reproduced here by a legacy subclass) as a
   use-after-unmap violation;
3. the fixed path translates to a clean :class:`DmaFault` with zero
   violations.
"""

import pytest

from repro.context import using
from repro.iommu import Iommu, Iotlb
from repro.iommu.addr import PAGE_SHIFT, PAGE_SIZE
from repro.iommu.iommu import IOTLB_ENTRIES, IOTLB_WAYS, DmaFault
from repro.verify import InvariantMonitor, InvariantViolation

HUGE = 512 * PAGE_SIZE  # 2 MB


class LegacyIotlb(Iotlb):
    """Pre-fix drop logic: page invalidation ignores the huge array.

    The invalidation *descriptor* still completes (and the queue reports
    it to the monitor) — that is exactly the bug's shape: the driver
    believes the page is unreachable while the 2 MB entry keeps
    translating it.
    """

    def invalidate_range(self, iova: int, length: int) -> int:
        dropped = 0
        first = iova >> PAGE_SHIFT
        for page_number in range(first, first + length // PAGE_SIZE):
            if self._set_for(page_number).pop(page_number, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped


def _huge_mapped_iommu(monitor, legacy: bool):
    """An IOMMU with one cached 2 MB translation, then fully unmapped."""
    with using(monitor=monitor):
        iommu = Iommu()
        if legacy:
            iommu.iotlb = LegacyIotlb(IOTLB_ENTRIES, IOTLB_WAYS)
            iommu.invalidation_queue.iotlb = iommu.iotlb
    iommu.map_huge(0, base_frame=1000)
    assert iommu.translate(0x3000).frame == 1003  # fills the huge entry
    iommu.unmap_range(0, HUGE)  # pages now pending invalidation
    # Strict-mode per-page teardown: invalidate just the touched page.
    iommu.invalidation_queue.invalidate_range(
        0x3000, PAGE_SIZE, preserve_ptcache=True
    )
    return iommu


def test_monitor_flags_stale_huge_on_legacy_iotlb():
    monitor = InvariantMonitor()
    iommu = _huge_mapped_iommu(monitor, legacy=True)
    # The huge entry survived, so the translation *succeeds* for a page
    # whose invalidation completed — invariant (a) must fire.
    with pytest.raises(InvariantViolation) as excinfo:
        iommu.translate(0x3000)
    assert excinfo.value.kind == "use-after-unmap"
    assert monitor.violations


def test_fixed_iotlb_faults_cleanly_after_page_invalidation():
    monitor = InvariantMonitor()
    iommu = _huge_mapped_iommu(monitor, legacy=False)
    with pytest.raises(DmaFault):
        iommu.translate(0x3000)
    assert not monitor.violations
    assert monitor.faults_observed == 1


def test_fixed_iotlb_unreachable_across_whole_region():
    # After the per-page invalidation dropped the covering entry, no
    # address in the retired 2 MB region can still translate.
    monitor = InvariantMonitor()
    iommu = _huge_mapped_iommu(monitor, legacy=False)
    for iova in (0x0, 0x3000, HUGE - PAGE_SIZE):
        with pytest.raises(DmaFault):
            iommu.translate(iova)
    assert not monitor.violations
