"""Known-good: deferred batching — unmap per slot, one flush after.

The per-iteration facts survive the ``for`` back edge (that is the
whole point of batching) but every path out of ``retire_batch`` goes
through ``_maybe_flush``, which transitively submits the flush; the
rule's call-graph closure recognises the helper as invalidating.
"""


class Driver:
    pass


class DeferredBatchingDriver(Driver):
    def __init__(self, iommu, queue):
        self.iommu = iommu
        self.queue = queue
        self.pending = []

    def retire_batch(self, slots):
        for slot in slots:
            self.iommu.unmap_range(slot.iova, slot.length)
            self._note(slot)
        self._maybe_flush(force=True)

    def _note(self, slot):
        self.pending.append(slot)

    def _maybe_flush(self, force=False):
        if force or len(self.pending) >= 32:
            self.queue.flush_all()
            self.pending = []
