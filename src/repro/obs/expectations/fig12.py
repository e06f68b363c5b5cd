"""Fig 12 claims: each F&S idea is necessary (Redis 8 KB ablation).

A = preserve PTcaches across invalidations; B = contiguous IOVA
allocation + batched invalidation.
"""

from ..expect import FigureSpec, is_zero, within_band, wins

SPEC = FigureSpec(
    figure="fig12",
    title="Ablation: each F&S idea is necessary",
    expectations=(
        wins(
            "linux+A",
            "strict",
            "gbps",
            claim="preserving PTcaches alone helps over strict",
            paper="insufficient alone",
        ),
        wins(
            "linux+B",
            "strict",
            "gbps",
            claim="contiguity + batching alone helps over strict",
            paper="insufficient alone",
        ),
        wins(
            "fns",
            "linux+A",
            "gbps",
            claim="A alone does not reach F&S",
            paper="only A+B recovers",
        ),
        wins(
            "fns",
            "linux+B",
            "gbps",
            claim="B alone does not reach F&S",
            paper="only A+B recovers",
        ),
        within_band(
            "gbps",
            "fns",
            of="off",
            lo=0.9,
            claim="F&S approaches the IOMMU-off ceiling",
            paper="near off",
        ),
        within_band(
            "l3/pg",
            "linux+A",
            lo=0.02,
            claim="A alone leaves locality-driven L3 misses",
            paper="locality-driven misses remain",
        ),
        within_band(
            "l3/pg",
            "linux+B",
            lo=0.02,
            claim="B alone leaves invalidation-driven L3 misses",
            paper="invalidation-driven misses remain",
        ),
        is_zero(
            "l3/pg",
            "fns",
            tol=0.02,
            claim="F&S eliminates both L3 miss sources",
            paper="near zero",
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
        "strict": [(8192, 35.0)],
        "linux+A": [(8192, 55.0)],
        "linux+B": [(8192, 55.0)],
        "fns": [(8192, 87.0)],
        "off": [(8192, 90.0)],
    },
}
