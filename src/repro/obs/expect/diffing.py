"""The ``repro diff`` driver: claim-level regression gating.

Compares two ``report.json`` files (``repro.report/1``) and reports
claims that passed before and fail now, or disappeared, as regressions;
claims that newly pass are improvements, and new claims, changed
config hashes, git shas and cache temperature are notes.  A document
of any other schema, or one whose provenance, figures or claims have
the wrong shape, raises :class:`ValueError` (``repro diff`` exits 2).

This is the claims gate CI runs against the committed ``report.json``.
Simulator speed is measured by the benchmark of ``repro reproduce``
itself (``bench/run.py``), not here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import argparse

__all__ = ["DiffResult", "diff_documents", "main"]


@dataclass
class DiffResult:
    """Regressions fail the gate; improvements and notes are FYI."""

    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = ["diff:"]
        for text in self.regressions:
            lines.append(f"  REGRESSION  {text}")
        for text in self.improvements:
            lines.append(f"  improved    {text}")
        for text in self.notes:
            lines.append(f"  note        {text}")
        if not (self.regressions or self.improvements or self.notes):
            lines.append("  no differences")
        lines.append(
            f"  -> {'OK' if self.ok else 'FAIL'} "
            f"({len(self.regressions)} regression(s))"
        )
        return "\n".join(lines)


def main(args: argparse.Namespace) -> int:
    """``repro diff``: 0 clean, 1 on regressions, 2 on unusable input."""
    docs = []
    for path in (args.old, args.new):
        try:
            with open(path) as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
    try:
        result = diff_documents(docs[0], docs[1])
    except ValueError as exc:
        print(f"cannot diff: {exc}", file=sys.stderr)
        return 2
    print(result.format())
    return 0 if result.ok else 1


def diff_documents(old: dict, new: dict) -> DiffResult:
    """Compare two report documents; raises ValueError on junk."""
    old_schema = old.get("schema") if isinstance(old, dict) else None
    new_schema = new.get("schema") if isinstance(new, dict) else None
    if old_schema != new_schema:
        raise ValueError(
            f"schema mismatch: {old_schema!r} vs {new_schema!r}"
        )
    if old_schema == "repro.report/1":
        return _diff_reports(old, new)
    raise ValueError(f"unsupported schema {old_schema!r}")


def _sha_note(result: DiffResult, old: dict, new: dict) -> None:
    """Name the git shas being compared (when either side is stamped)."""
    old_prov = old.get("provenance", {})
    new_prov = new.get("provenance", {})
    old_sha = old_prov.get("git_sha")
    new_sha = new_prov.get("git_sha")
    if old_sha is None and new_sha is None:
        return

    def short(prov: dict) -> str:
        sha = prov.get("git_sha")
        text = sha[:12] if isinstance(sha, str) and sha else "unknown"
        if prov.get("git_dirty"):
            text += "+dirty"
        return text

    result.notes.append(
        f"comparing git shas {short(old_prov)} -> {short(new_prov)}"
    )


def _cache_note(result: DiffResult, old: dict, new: dict) -> None:
    """Flag warm-vs-cold comparisons (different cache temperature).

    ``repro reproduce`` stamps ``provenance.cache`` with
    ``cells_cached``/``cells_computed``; comparing a warm document
    against a cold one is still byte-identical by design, but the
    reader should know the two runs exercised different executors.
    """

    def temperature(doc: dict) -> str:
        stamp = doc.get("provenance", {}).get("cache")
        if not isinstance(stamp, dict):
            return "uncached"
        cached = stamp.get("cells_cached") or 0
        computed = stamp.get("cells_computed") or 0
        if cached and not computed:
            return "warm"
        if computed and not cached:
            return "cold"
        return f"mixed ({cached} cached, {computed} computed)"

    old_temp = temperature(old)
    new_temp = temperature(new)
    if old_temp != new_temp:
        result.notes.append(
            f"cache temperature differs: {old_temp} -> {new_temp} "
            "(warm runs adopt stored phases; reports stay comparable)"
        )


# ----------------------------------------------------------------------
# report.json vs report.json — claim-level gating
# ----------------------------------------------------------------------
def _claims(doc: dict) -> dict[tuple[str, str], str]:
    out: dict[tuple[str, str], str] = {}
    for figure in doc.get("figures", []):
        for claim in figure.get("claims", []):
            key = (figure.get("figure", "?"), claim.get("claim", "?"))
            out[key] = claim.get("status", "?")
    return out


def _check_shape(doc: dict, side: str) -> None:
    """Reject a report the comparison below would crash on."""
    if not isinstance(doc.get("provenance", {}), dict):
        raise ValueError(f"{side} report: provenance is not an object")
    figures = doc.get("figures", [])
    if not isinstance(figures, list) or not all(
        isinstance(figure, dict) for figure in figures
    ):
        raise ValueError(f"{side} report: figures is not a list of objects")
    for figure in figures:
        claims = figure.get("claims", [])
        if not isinstance(claims, list) or not all(
            isinstance(claim, dict) for claim in claims
        ):
            raise ValueError(
                f"{side} report: claims of figure "
                f"{figure.get('figure', '?')!r} are not a list of objects"
            )


def _diff_reports(old: dict, new: dict) -> DiffResult:
    _check_shape(old, "old")
    _check_shape(new, "new")
    result = DiffResult()
    _sha_note(result, old, new)
    _cache_note(result, old, new)
    old_claims = _claims(old)
    new_claims = _claims(new)
    for key, new_status in new_claims.items():
        old_status = old_claims.get(key)
        label = f"{key[0]}: {key[1]}"
        if old_status is None:
            result.notes.append(f"new claim {label} [{new_status}]")
        elif old_status == "pass" and new_status == "fail":
            result.regressions.append(f"{label} (pass -> fail)")
        elif old_status == "fail" and new_status == "pass":
            result.improvements.append(f"{label} (fail -> pass)")
        elif old_status != new_status:
            result.notes.append(
                f"{label} ({old_status} -> {new_status})"
            )
    for key in old_claims:
        if key not in new_claims:
            result.regressions.append(
                f"{key[0]}: {key[1]} (claim disappeared)"
            )
    old_hash = old.get("provenance", {}).get("config_hash")
    new_hash = new.get("provenance", {}).get("config_hash")
    if old_hash != new_hash:
        result.notes.append(
            f"config hash changed ({old_hash} -> {new_hash}): "
            "figures, scale, seed or specs differ"
        )
    return result

