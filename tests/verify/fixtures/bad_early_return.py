"""Known-bad: an error path returns between unmap and invalidation.

Both calls appear in the method body, so a class-wide check is
satisfied; the CFG rule follows the ``return None`` edge and sees the
pending unmap escape the function uninvalidated.
"""


class Driver:
    pass


class EarlyReturnDriver(Driver):
    def __init__(self, iommu):
        self.iommu = iommu

    def retire(self, slot):
        self.iommu.unmap_range(slot.iova, slot.length)
        if slot.error:
            return None
        self.iommu.invalidate_range(slot.iova, slot.length)
        return slot
