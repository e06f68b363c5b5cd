"""Fig 9 claims: RPC tail latency colocated with iperf traffic."""

from ..expect import FigureSpec, within_band, wins

_SIZES = (128, 4096, 32768)

SPEC = FigureSpec(
    figure="fig9",
    title="RPC tail latency under colocation",
    expectations=(
        within_band(
            "n",
            "off",
            lo=20,
            at=_SIZES,
            claim="enough RPC samples complete under off",
            paper="-",
        ),
        within_band(
            "n",
            "fns",
            lo=20,
            at=_SIZES,
            claim="enough RPC samples complete under F&S",
            paper="-",
        ),
        within_band(
            "n",
            "strict",
            lo=1,
            at=_SIZES,
            claim="strict RPCs complete, if slowly",
            paper="-",
        ),
        within_band(
            "p50",
            "fns",
            of="off",
            hi=2.0,
            at=_SIZES,
            claim="F&S median latency within a small factor of off",
            paper="<= 1.17x of off",
        ),
        within_band(
            "p99.9",
            "fns",
            of="off",
            hi=3.0,
            slack=200.0,
            at=_SIZES,
            claim="F&S P99.9 within a small factor of off",
            paper="<= 1.42x at P99.99",
        ),
        wins(
            "strict",
            "off",
            "p99.9",
            by=10.0,
            at=_SIZES,
            agg="max",
            claim="strict tail inflates by orders of magnitude",
            paper="P99 queueing, P99.9+ at RTO scale",
        ),
    ),
)


# Paper reference curves: approximate digitizations of the paper's plotted
# series (the claim-level paper-vs-ours context lives in EXPERIMENTS.md).
# ``repro reproduce`` scores the rows against them (``paper_score`` in
# report.json and REPORT.md) and CI gates the committed score; no claim
# reads them.
PAPER_CURVES: dict[str, dict[str, list[tuple[float, float]]]] = {
    "p99.9": {
        "off": [(128, 67.0), (32768, 120.0)],
        "strict": [(128, 4000.0), (32768, 4000.0)],
        "fns": [(128, 78.0), (32768, 140.0)],
    },
}
