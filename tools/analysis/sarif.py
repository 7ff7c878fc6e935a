"""SARIF 2.1.0 serialisation of checker findings.

One run, one driver (``repro-analysis``), one rule per finding code.
Baselined findings are carried with a ``suppressions`` entry (kind
``"external"``) so code-scanning UIs show them as reviewed instead of
open — CI gates on the *unsuppressed* results only.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from tools.analysis.base import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: One-line rule descriptions, keyed by finding code prefix family.
_FAMILY_HELP = {
    "RES": "MemoryTracker handles must be freed on every path",
    "LOCK": "guarded attributes and the declared lock hierarchy",
    "SCHUR": "the dense Schur complement must stay compressed",
    "DT": "kernel arrays need explicit problem dtypes",
    "AXPY": "deferred-recompression accumulators must be flushed",
    "BLK": "never block for another thread while holding a lock",
    "DET": "nothing order-unstable may feed ordered commits",
    "WAIVE": "waiver markers require a justification",
    "E": "file could not be analysed",
}


def _rule_help(code: str) -> str:
    for prefix in sorted(_FAMILY_HELP, key=len, reverse=True):
        if code.startswith(prefix):
            return _FAMILY_HELP[prefix]
    return "repro invariant"


def to_sarif(findings: Sequence[Finding],
             suppressed: Iterable[tuple] = ()) -> Dict:
    """Build the SARIF log dict for ``findings`` plus baselined ones.

    ``suppressed`` holds ``(finding, justification)`` pairs.
    """
    suppressed = list(suppressed)
    rules: Dict[str, Dict] = {}
    results: List[Dict] = []

    def add(finding: Finding, suppression: Optional[str]) -> None:
        rules.setdefault(finding.code, {
            "id": finding.code,
            "name": finding.code,
            "shortDescription": {"text": _rule_help(finding.code)},
            "properties": {"checker": finding.checker},
        })
        result = {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(1, finding.line)},
                },
            }],
        }
        if suppression is not None:
            result["suppressions"] = [{
                "kind": "external",
                "justification": suppression,
            }]
        results.append(result)

    for finding in findings:
        add(finding, None)
    for finding, justification in suppressed:
        add(finding, justification or "accepted in the committed baseline")

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-analysis",
                    "informationUri":
                        "docs/static_analysis.md",
                    "rules": [rules[code] for code in sorted(rules)],
                },
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def write_sarif(path: str, findings: Sequence[Finding],
                suppressed: Iterable[tuple] = ()) -> None:
    with open(path, "w") as fh:
        json.dump(to_sarif(findings, suppressed), fh, indent=2, sort_keys=True)
        fh.write("\n")
