"""Known-bad: unmap on one branch, invalidation only on the other.

A class-wide check sees both an unmap and an invalidate somewhere
in the method and stays quiet; only the path-sensitive rule proves
the urgent branch reaches ``return`` with the translation still live
in the IOTLB.
"""


class Driver:
    pass


class BranchySplitDriver(Driver):
    def __init__(self, iommu):
        self.iommu = iommu

    def retire(self, slot, urgent):
        if urgent:
            # Fast path skips the invalidation entirely.
            self.iommu.unmap_range(slot.iova, slot.length)
        else:
            self.iommu.invalidate_range(slot.iova, slot.length)
        return slot
