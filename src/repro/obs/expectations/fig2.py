"""Fig 2 claims: Linux strict vs IOMMU off, varying flows (iperf)."""

from ..expect import (
    FigureSpec,
    equal,
    grows_with,
    largest_class,
    within_band,
    wins,
)

SPEC = FigureSpec(
    figure="fig2",
    title="Linux strict vs IOMMU off, varying flows",
    expectations=(
        within_band(
            "gbps",
            "strict",
            of="off",
            hi=0.92,
            at=(5, 40),
            claim="strict loses clear throughput vs off",
            paper="20-65% degradation, worse with flows",
        ),
        grows_with(
            "drop%",
            "strict",
            claim="strict drop rate grows with flows",
            paper="grows to ~4% at 40 flows",
        ),
        within_band(
            "iotlb/pg",
            "strict",
            lo=1.0,
            claim="at least the compulsory IOTLB miss per page",
            paper="1.30 - 2.20 misses/page",
        ),
        grows_with(
            "iotlb/pg",
            "strict",
            claim="strict IOTLB misses/page grow with flows",
            paper="1.30 -> 2.20",
        ),
        equal(
            "m1/pg",
            "m2/pg",
            mode="strict",
            tol_abs=0.005,
            tol_rel=0.25,
            claim="m1 = m2 (both count the same invalidations)",
            paper="0.05 -> 0.63, equal",
        ),
        within_band(
            "m1/pg",
            "strict",
            lo=0.001,
            at=(5, 40),
            claim="PTcache-L1 misses are nonzero under strict",
            paper="0.05 -> 0.63",
        ),
        largest_class(
            "m3/pg",
            among=("m1/pg", "m2/pg", "m3/pg"),
            mode="strict",
            claim="m3 is the largest PTcache miss class",
            paper="0.36 -> 0.90 (invalidation + locality)",
        ),
        grows_with(
            "m3/pg",
            "strict",
            claim="strict PTcache-L3 misses grow with flows",
            paper="0.36 -> 0.90",
        ),
        grows_with(
            "tx/pg",
            "strict",
            claim="Tx packets per Rx page grow with flows (ACK feedback)",
            paper="grows with flows",
        ),
        grows_with(
            "loc_p95",
            "strict",
            factor=0.8,
            claim="strict allocation locality stays degraded with flows",
            paper="degrades with flows",
        ),
        wins(
            "strict",
            "off",
            "loc_p95",
            claim="strict reuse distance far above off's",
            paper="p95 distance >> 0",
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
    },
    "iotlb/pg": {
        "strict": [(5, 1.30), (10, 1.60), (20, 1.90), (40, 2.20)],
    },
    "m3/pg": {
        "strict": [(5, 0.36), (10, 0.55), (20, 0.72), (40, 0.90)],
    },
}
