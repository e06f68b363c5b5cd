"""Fig 11b claims: Nginx page-serving throughput."""

from ..expect import FigureSpec, within_band

SPEC = FigureSpec(
    figure="fig11b",
    title="Nginx throughput",
    expectations=(
        within_band(
            "gbps",
            "off",
            hi=99.0,
            claim="off is application-limited below line rate",
            paper="~90 Gbps, app-limited",
        ),
        within_band(
            "gbps",
            "strict",
            of="off",
            hi=1.1,
            claim="strict does not beat off (deviation: mild loss)",
            paper="65-70% degradation (ours much milder)",
        ),
        within_band(
            "gbps",
            "fns",
            of="off",
            lo=0.85,
            claim="F&S matches the app-limited off throughput",
            paper="equal to off",
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
        "off": [(131072, 90.0), (524288, 91.0), (2097152, 90.0)],
        "strict": [(131072, 29.0), (524288, 30.0), (2097152, 30.0)],
        "fns": [(131072, 90.0), (524288, 91.0), (2097152, 90.0)],
    },
}
