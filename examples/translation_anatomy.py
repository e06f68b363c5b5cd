#!/usr/bin/env python3
"""Anatomy of an address translation — and of the F&S insight.

Drives the IOMMU model directly (no network) to show exactly where the
paper's memory-read counts come from:

1. a cold translation walks all 4 IO page table levels;
2. a warm IOTLB entry is free;
3. strict safety forces the IOTLB entry to die with every unmap, so
   the *next* access misses — that is unavoidable;
4. with Linux's invalidation policy the PTcaches die too and the miss
   costs 4 reads again; with F&S's IOTLB-only invalidation the miss
   costs a single PT-L4 read;
5. the deferred mode's stale-entry safety hole, demonstrated.

Run:  python examples/translation_anatomy.py
"""

from repro.iommu import DmaFault, Iommu
from repro.iommu.addr import PAGE_SIZE


def show(step: str, detail: str) -> None:
    print(f"  {step:58s} {detail}")


def main() -> None:
    iommu = Iommu()
    iommu.check_stale_hits = True
    base = 0x7F00_0000_0000  # some IOVA region
    for page in range(64):
        iommu.map_page(base + page * PAGE_SIZE, frame=1000 + page)

    print("A descriptor's worth of mappings installed (64 pages).\n")

    result = iommu.translate(base)
    show(
        "1. cold translation (all caches empty)",
        f"{result.memory_reads} memory reads (full 4-level walk)",
    )

    result = iommu.translate(base)
    show(
        "2. repeat translation",
        f"IOTLB hit, {result.memory_reads} reads",
    )

    result = iommu.translate(base + PAGE_SIZE)
    show(
        "3. neighbouring page (PTcache-L3 now warm)",
        f"{result.memory_reads} read (only the PT-L4 entry)",
    )

    # --- Linux strict: unmap + invalidate everything -------------------
    iommu.unmap_range(base, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        base, PAGE_SIZE, preserve_ptcache=False
    )
    try:
        iommu.translate(base)
    except DmaFault:
        show("4. device access after strict unmap", "DMA FAULT (safe)")
    result = iommu.translate(base + 2 * PAGE_SIZE)
    show(
        "5. next page after Linux invalidation",
        f"{result.memory_reads} reads (PTcaches were dropped too)",
    )

    # --- F&S: IOTLB-only invalidation ----------------------------------
    iommu.unmap_range(base + PAGE_SIZE, PAGE_SIZE)
    iommu.invalidation_queue.invalidate_range(
        base + PAGE_SIZE, PAGE_SIZE, preserve_ptcache=True
    )
    try:
        iommu.translate(base + PAGE_SIZE)
    except DmaFault:
        show("6. device access after F&S unmap", "DMA FAULT (equally safe)")
    result = iommu.translate(base + 3 * PAGE_SIZE)
    show(
        "7. next page after F&S invalidation",
        f"{result.memory_reads} read (PTcaches preserved)",
    )

    # --- Deferred: the weaker property ---------------------------------
    iommu.translate(base + 4 * PAGE_SIZE)  # device caches the entry
    iommu.unmap_range(base + 4 * PAGE_SIZE, PAGE_SIZE)  # no invalidation!
    result = iommu.translate(base + 4 * PAGE_SIZE)
    show(
        "8. device access after *deferred* unmap",
        f"STALE IOTLB HIT (frame {result.frame}) — the safety hole",
    )

    print(
        "\nThe F&S thesis in two numbers: the unavoidable per-page miss"
        f" costs\n{4} reads under Linux's invalidation policy and"
        f" {1} read under F&S's."
    )


if __name__ == "__main__":
    main()
