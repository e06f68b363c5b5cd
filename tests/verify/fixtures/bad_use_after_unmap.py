"""Known-bad: the IOVA handed to unmap flows into a DMA sink.

Statically reachable use-after-unmap: the translate() and the
driver's translate_for_dma() run against an address whose mapping a
previous statement already tore down.
"""


class StaleReader:
    def issue(self, iommu, slot):
        iommu.unmap_range(slot.iova, slot.length)
        self.log(slot.iova)
        return iommu.translate(slot.iova)

    def log(self, iova):
        pass


class StaleDriver:
    def retire_then_dma(self, slot):
        self.iommu.unmap_range(slot.iova, slot.length)
        return self.translate_for_dma(slot.iova, "rx")
