"""The ``REPROxxx`` rule catalogue of ``repro analyze``.

The static checker (:mod:`repro.verify.analyze`) reports
:class:`Finding` objects tagged with a ``REPROxxx`` code.  This module
is the single source of truth for what those codes *mean*: one
:class:`RuleInfo` per code, with a short summary (shown in SARIF rule
metadata) and a longer explanation (shown by ``--explain CODE``).

This module is a leaf — it must not import anything else from
``repro`` so the analyzer and the CLI can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Finding",
    "RuleInfo",
    "RULES",
    "all_rules",
    "explain",
]


@dataclass(frozen=True)
class Finding:
    """One static finding, formatted as ``path:line:col CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"


@dataclass(frozen=True)
class RuleInfo:
    """Metadata for one ``REPROxxx`` code."""

    code: str
    name: str  # short kebab-case identifier (SARIF rule name)
    summary: str  # one line; SARIF shortDescription
    explanation: str  # multi-line prose; ``--explain CODE``
    category: str  # "determinism" | "dma-safety" | "observability"

    def explain_text(self) -> str:
        return (
            f"{self.code} [{self.name}] ({self.category})\n\n"
            f"{self.summary}\n\n{self.explanation.strip()}\n"
        )


def all_rules() -> list[RuleInfo]:
    """Every rule, sorted by code."""
    return [RULES[code] for code in sorted(RULES)]


def explain(code: str) -> Optional[str]:
    """The ``--explain`` text for ``code``, or ``None`` if unknown."""
    info = RULES.get(code)
    return info.explain_text() if info is not None else None


# ---------------------------------------------------------------------------
# Rule catalogue
# ---------------------------------------------------------------------------
_CATALOGUE = [
    RuleInfo(
        code="REPRO000",
        name="syntax-error",
        summary="The file does not parse; nothing else can be checked.",
        explanation="""
A file that fails to parse is reported once with the parser's message
and skipped by every other rule.  Fix the syntax error and re-run.
""",
        category="determinism",
    ),
    RuleInfo(
        code="REPRO001",
        name="wall-clock-or-global-rng",
        summary=(
            "Wall-clock reads or module-level RNG calls break simulation "
            "determinism."
        ),
        explanation="""
The simulator's clock is the event calendar; reading the host's clock
(time.time(), datetime.now(), ...) or drawing from the process-global
random module makes two runs of the same seed diverge.  Use the
simulated clock (sim.now) and repro.sim.SeededRng.  random.Random(seed)
is the sanctioned seam SeededRng wraps and is allowed.
""",
        category="determinism",
    ),
    RuleInfo(
        code="REPRO002",
        name="hash-ordered-iteration",
        summary=(
            "Iterating a bare set has PYTHONHASHSEED-dependent order."
        ),
        explanation="""
Iteration order over set/frozenset (and set expressions) depends on the
interpreter's hash seed; feeding it into event scheduling makes runs
irreproducible across processes.  Wrap the iterable in sorted() or
iterate a list with a deterministic order.
""",
        category="determinism",
    ),
    RuleInfo(
        code="REPRO003",
        name="timestamp-float-equality",
        summary=(
            "Float ==/!= on simulated timestamps is brittle; compare "
            "with a tolerance or integer ticks."
        ),
        explanation="""
Simulated times are floats (nanoseconds); two logically simultaneous
events can differ in the last ulp after arithmetic.  Equality tests on
identifiers that look like timestamps (time, deadline, clock, ...) are
flagged unless the other side is a literal constant.
""",
        category="determinism",
    ),
    RuleInfo(
        code="REPRO004",
        name="unmap-without-invalidate",
        summary=(
            "A protection driver unmaps an IOVA range on a path that "
            "never enqueues the matching IOTLB invalidation."
        ),
        explanation="""
The paper's safety property: no DMA may ever hit a stale translation.
After unmap_range()/unmap_page(), the IOTLB (and, when page-table pages
were reclaimed, the PTcaches) must be invalidated before the buffer can
be reused — otherwise the device keeps a live translation to a page the
kernel thinks is free.

The rule is path-sensitive: every unmap call site must be followed by
an invalidation (direct, or via a method that transitively
invalidates) on *all* control-flow paths before the function returns
or remaps/reuses buffers, and a while retry loop must re-arm the
invalidation in every iteration.  A class-wide "does it invalidate
anywhere" check would miss an unmap in one branch with the
invalidation only in the other, and early returns that skip the
invalidation.
""",
        category="dma-safety",
    ),
    RuleInfo(
        code="REPRO101",
        name="use-after-unmap",
        summary=(
            "An IOVA is passed to a DMA/translate sink after the path "
            "already unmapped it (static twin of the runtime monitor)."
        ),
        explanation="""
IOVA-lifetime taint analysis: the first argument of an
unmap_range()/unmap_page() call becomes tainted; if the same expression
later reaches a DMA sink (translate, translate_page, translate_for_dma,
dma_read, dma_write) on some control-flow path without being
re-assigned or re-mapped, the code
statically contains a use-after-unmap — the exact class of bug the
runtime invariant monitor (repro verify) only catches on executed
paths.
""",
        category="dma-safety",
    ),
    RuleInfo(
        code="REPRO102",
        name="sim-callback-race",
        summary=(
            "Two event callbacks assign the same resource attribute "
            "with no scheduling happens-before edge between them."
        ),
        explanation="""
The simulator fires same-timestamp events in scheduling (FIFO) order,
so two independently scheduled callbacks that both *assign* the same
self.<attr> are order-dependent: whichever was scheduled last wins.
The rule collects every method a class hands to
call_at/call_after/schedule_at/schedule_after, the attributes each
plainly assigns (augmented updates like ``+=`` commute and are
ignored), and the happens-before edges induced by one callback
(transitively) scheduling another.  A pair of callbacks with a shared
assigned attribute and no scheduling path between them in either
direction is flagged at the class definition.

Soundness trade-off: the rule cannot see dynamic guards that make the
writes mutually exclusive; accept a reviewed pair by marking the
class line ``noqa: REPRO102`` with a comment saying why.
""",
        category="determinism",
    ),
    RuleInfo(
        code="REPRO103",
        name="unguarded-hook-work",
        summary=(
            "Metrics/monitor/fault-hook work performed outside the "
            "zero-cost ``if hooks:`` guard."
        ),
        explanation="""
The observability, verification and fault layers are zero-cost when
disabled *by contract*: objects read the run context once at
construction (current_context().registry / .monitor / .faults /
.injector(component), directly or through a local bound to
current_context()), keep the result in an attribute (obs, monitor,
faults), and guard every use
with ``if self.obs is not None:`` (or an early return).  A use that is
not dominated by such a guard either crashes un-instrumented runs
(AttributeError on None) or silently moves work onto the hot path.
The rule runs a forward must-analysis over the CFG: a hook variable is
"known non-None" only when every path into the use passed the guard.
""",
        category="observability",
    ),
    RuleInfo(
        code="REPRO105",
        name="reset-without-rearm",
        summary=(
            "A driver reset/recovery method maps DMA buffers on a path "
            "that never re-armed the invalidation queue."
        ),
        explanation="""
The hard-fault recovery protocol (DESIGN.md §14): a wedged invalidation
queue has been dropping completion reports, so when a reset/recovery
method runs, pending unmaps may not have reached the IOTLB yet.
Re-arming the queue (rearm(), or a hardened retire/flush that ends in
flush_all()) is what restores the invalidation barrier; mapping fresh
DMA buffers before that point rebuilds rings while stale translations
may still be live in the IOTLB — exactly the window the paper's safety
property forbids.  The rule runs a forward must-analysis over each
reset*/recover* method of a Driver class: every map-family call
(map_page/map_range/map_huge/make_rx_descriptor/map_tx_page, or a
helper that transitively maps) must be preceded by a re-arm on *all*
control-flow paths.
""",
        category="dma-safety",
    ),
]

RULES: dict[str, RuleInfo] = {info.code: info for info in _CATALOGUE}
