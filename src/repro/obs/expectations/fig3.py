"""Fig 3 claims: Linux strict vs IOMMU off, varying Rx ring size."""

from ..expect import FigureSpec, equal, within_band, wins

SPEC = FigureSpec(
    figure="fig3",
    title="Linux strict vs IOMMU off, varying ring size",
    expectations=(
        wins(
            "off",
            "strict",
            "gbps",
            at=(256, 2048),
            claim="strict degrades vs off at every ring size",
            paper="degradation grows with ring size (up to +15%)",
        ),
        equal(
            "iotlb/pg",
            mode="strict",
            between=(256, 2048),
            tol_abs=0.5,
            claim="IOTLB misses roughly constant with ring size",
            paper="compulsory-dominated, ~constant",
        ),
        within_band(
            "m3/pg",
            "strict",
            lo=0.1,
            at=(256, 2048),
            claim="PTcache-L3 misses substantial at every ring size",
            paper="grows with ring size (we: substantial, flat)",
        ),
        within_band(
            "loc_p95",
            "strict",
            lo=10,
            at=(256, 2048),
            claim="strict allocation locality poor at all ring sizes",
            paper="degrades with ring size (we: poor throughout)",
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
        "off": [(256, 99.0), (512, 99.0), (1024, 99.0), (2048, 98.0)],
        "strict": [(256, 80.0), (512, 78.0), (1024, 73.0), (2048, 68.0)],
    },
    "iotlb/pg": {
        "strict": [(256, 1.40), (512, 1.40), (1024, 1.40), (2048, 1.45)],
    },
}
