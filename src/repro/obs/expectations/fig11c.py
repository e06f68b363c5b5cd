"""Fig 11c claims: SPDK remote read throughput."""

from ..expect import FigureSpec, declines_with, within_band, wins

SPEC = FigureSpec(
    figure="fig11c",
    title="SPDK remote read throughput",
    expectations=(
        within_band(
            "gbps",
            "strict",
            of="off",
            hi=0.95,
            at=(32768, 65536),
            claim="visible strict degradation at small/medium blocks",
            paper="caps ~60 Gbps (~40% loss)",
        ),
        wins(
            "fns",
            "strict",
            "gbps",
            at=(32768, 65536),
            claim="F&S above strict at small/medium blocks",
            paper="F&S = off",
        ),
        within_band(
            "gbps",
            "fns",
            of="off",
            lo=0.95,
            at=(32768, 65536),
            claim="F&S matches off at small/medium blocks",
            paper="equal except small 32 KB gap",
        ),
        within_band(
            "gbps",
            "strict",
            of="off",
            hi=1.02,
            at=(262144,),
            claim="no inversion at large blocks",
            paper="strict below off throughout",
        ),
        declines_with(
            "iotlb/pg",
            "strict",
            factor=1.05,
            claim="strict IOTLB misses higher at small blocks",
            paper="~1.5x more at 32 KB vs 256 KB",
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
        "off": [(32768, 91.0), (65536, 92.0), (262144, 93.0)],
        "strict": [(32768, 58.0), (65536, 60.0), (262144, 62.0)],
        "fns": [(32768, 88.0), (65536, 92.0), (262144, 93.0)],
    },
    "iotlb/pg": {
        "strict": [(32768, 1.50), (262144, 1.00)],
    },
}
