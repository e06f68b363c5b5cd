"""Fig 7 claims: F&S eliminates the protection overheads (flows)."""

from ..expect import FigureSpec, is_zero, within_band

SPEC = FigureSpec(
    figure="fig7",
    title="F&S vs strict vs off, varying flows",
    expectations=(
        within_band(
            "gbps",
            "fns",
            of="off",
            lo=0.95,
            claim="F&S throughput matches IOMMU-off",
            paper="equal at all flow counts",
        ),
        within_band(
            "gbps",
            "strict",
            of="off",
            hi=0.92,
            claim="strict stays clearly below off",
            paper="20-65% degradation",
        ),
        within_band(
            "drop%",
            "fns",
            of="off",
            hi=1.0,
            slack=0.05,
            claim="F&S adds no protection-induced drops",
            paper="none beyond off",
        ),
        is_zero(
            "m1/pg",
            "fns",
            claim="F&S PTcache-L1 misses are exactly zero",
            paper="0",
        ),
        is_zero(
            "m2/pg",
            "fns",
            claim="F&S PTcache-L2 misses are exactly zero",
            paper="0",
        ),
        within_band(
            "m3/pg",
            "fns",
            of="strict",
            hi=0.1,
            hi_min=0.054,
            claim="F&S PTcache-L3 misses >=10x below strict",
            paper="<= 0.045/page, >10-20x fewer",
        ),
        within_band(
            "iotlb/pg",
            "fns",
            lo=1.0,
            claim="strict safety keeps the compulsory IOTLB miss",
            paper=">= 1/page, ~2x below strict at 40 flows",
        ),
        within_band(
            "loc_p95",
            "fns",
            hi=4.0,
            claim="F&S locality near-perfect (p95 reuse distance ~0)",
            paper="flat, spikes only at descriptor boundaries",
        ),
        # The registry counts from construction, so the first walk of
        # each phase pays compulsory cold-cache misses the per-page
        # steady-state table rounds away; allow only that handful.
        is_zero(
            metric="iommu.ptcache_m1",
            phase_contains=" fns ",
            tol=8.0,
            claim="registry: F&S L1 misses are cold-start-only",
            paper="0 in steady state",
        ),
        is_zero(
            metric="iommu.ptcache_m2",
            phase_contains=" fns ",
            tol=8.0,
            claim="registry: F&S L2 misses are cold-start-only",
            paper="0 in steady state",
        ),
    ),
)


# Paper reference curves: approximate digitizations of the paper's plotted
# series (the claim-level paper-vs-ours context lives in EXPERIMENTS.md).
# ``repro reproduce`` scores the rows against them (``paper_score`` in
# report.json and REPORT.md) and CI gates the committed score; no claim
# reads them.
PAPER_CURVES: dict[str, dict[str, list[tuple[float, float]]]] = {
    "gbps": {
        "off": [(5, 99.0), (10, 97.0), (20, 95.0), (40, 92.0)],
        "strict": [(5, 80.0), (10, 68.0), (20, 52.0), (40, 35.0)],
        "fns": [(5, 99.0), (10, 97.0), (20, 95.0), (40, 92.0)],
    },
    "iotlb/pg": {
        "strict": [(5, 1.30), (40, 2.20)],
        "fns": [(5, 1.10), (40, 1.15)],
    },
    "m3/pg": {
        "fns": [(5, 0.045), (40, 0.045)],
    },
}
