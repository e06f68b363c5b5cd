"""Finding renderers for ``repro analyze``: text and SARIF.

The SARIF output targets SARIF 2.1.0 with exactly the subset CI code
scanners ingest: one run, one ``tool.driver`` with per-rule metadata
from the rule catalogue, and one result per finding with a physical
location.
"""

from __future__ import annotations

import json

from ..registry import Finding, all_rules

__all__ = ["render_text", "render_sarif"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: list[Finding]) -> str:
    return "\n".join(finding.format() for finding in findings)


def render_sarif(findings: list[Finding]) -> str:
    # Every rule is described up front, so a result's ruleIndex is
    # its code's position in the catalogue.
    rules = [
        {
            "id": info.code,
            "name": info.name,
            "shortDescription": {"text": info.summary},
            "fullDescription": {"text": info.explanation},
        }
        for info in all_rules()
    ]
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": (
                            "https://example.invalid/repro/analyze"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)
