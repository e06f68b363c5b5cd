"""Fig 10 claims: concurrent Rx/Tx interference (Ice Lake)."""

from ..expect import FigureSpec, within_band, wins

SPEC = FigureSpec(
    figure="fig10",
    title="Concurrent Rx/Tx interference (Ice Lake)",
    expectations=(
        within_band(
            "rx_gbps",
            "strict",
            of="off",
            hi=0.62,
            at=(2, 4),
            claim="strict Rx collapses under Rx/Tx interference",
            paper="up to ~80% Rx degradation",
        ),
        wins(
            "fns",
            "strict",
            "rx_gbps",
            by=1.3,
            at=(2, 4),
            claim="F&S recovers a large part of the Rx loss",
            paper="= off except a small gap at <4 cores",
        ),
        wins(
            "fns",
            "strict",
            "tx_gbps",
            at=(2, 4),
            claim="F&S Tx throughput above strict's",
            paper="strict Tx degrades too (less than Rx)",
        ),
        wins(
            "off",
            "strict",
            "rx_gbps",
            at=(1,),
            claim="interference visible even at one core per direction",
            paper="present at all core counts",
        ),
    ),
)


# Paper reference curves: approximate digitizations of the paper's plotted
# series (the claim-level paper-vs-ours context lives in EXPERIMENTS.md).
# ``repro reproduce`` scores the rows against them (``paper_score`` in
# report.json and REPORT.md) and CI gates the committed score; no claim
# reads them.
PAPER_CURVES: dict[str, dict[str, list[tuple[float, float]]]] = {
    "rx_gbps": {
        "off": [(1, 97.0), (2, 98.0), (4, 99.0)],
        "strict": [(1, 55.0), (2, 30.0), (4, 20.0)],
        "fns": [(1, 85.0), (2, 95.0), (4, 98.0)],
    },
    "tx_gbps": {
        "off": [(1, 93.0), (2, 95.0), (4, 96.0)],
        "strict": [(1, 70.0), (2, 60.0), (4, 55.0)],
        "fns": [(1, 88.0), (2, 94.0), (4, 95.0)],
    },
}
