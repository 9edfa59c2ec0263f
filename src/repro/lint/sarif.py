"""SARIF 2.1.0 output for GitHub code scanning.

``comb lint --format sarif`` serializes a lint run as one SARIF run so
CI can upload it with ``github/codeql-action/upload-sarif`` and findings
surface as code-scanning annotations on the PR diff instead of buried
job logs.

Shape notes (the parts of the 2.1.0 spec that bite):

* ``region`` lines/columns are 1-based; violations carry 0-based
  columns, so ``startColumn`` is ``col + 1``.
* every result references its rule by ``ruleIndex`` into the driver's
  ``rules`` array, which lists each rule exactly once.
* findings waived by ``# comb-lint: disable`` are still emitted,
  carrying an ``inSource`` suppression entry — code scanning shows them
  as resolved rather than losing them.
* ``partialFingerprints`` carries the violation fingerprint, which is
  line-number independent, so annotations track moved code.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .model import LintViolation
from .rules import rule_catalog
from .runner import LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_INFO_URI = "https://github.com/comb-repro/comb#comb-lint"

#: Synthetic rule id for unparseable files (not in the registry).
_PARSE_RULE = ("PARSE001", "file could not be parsed and was not linted")


def _rule_entry(rule_id: str, summary: str) -> Dict[str, object]:
    return {
        "id": rule_id,
        "shortDescription": {"text": summary or rule_id},
        "helpUri": _INFO_URI,
        "defaultConfiguration": {"level": "error"},
    }


def _result(
    v: LintViolation,
    rule_index: Dict[str, int],
    suppression: Optional[str],
) -> Dict[str, object]:
    out: Dict[str, object] = {
        "ruleId": v.rule,
        "ruleIndex": rule_index[v.rule],
        "level": "error" if v.severity == "error" else "warning",
        "message": {"text": f"{v.message} [in {v.symbol}]"},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": v.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(v.line, 1),
                        "startColumn": v.col + 1,
                        "snippet": {"text": v.snippet},
                    },
                }
            }
        ],
        "partialFingerprints": {"combLintFingerprint/v1": v.fingerprint()},
    }
    if suppression is not None:
        out["suppressions"] = [{"kind": suppression}]
    return out


def sarif_log(report: LintReport) -> Dict[str, object]:
    """The SARIF log of ``report`` as a JSON-ready dict."""
    catalog = dict(rule_catalog())
    catalog.setdefault(*_PARSE_RULE)
    # Only rules that actually fired, for a compact rules array; order is
    # sorted rule id so output is byte-stable.
    fired = sorted(
        {v.rule for v in report.all_found()}
        | {v.rule for v in report.parse_errors}
    )
    rule_index = {rule_id: i for i, rule_id in enumerate(fired)}
    rules = [_rule_entry(r, catalog.get(r, "")) for r in fired]

    batches: List[Tuple[List[LintViolation], Optional[str]]] = [
        (report.violations, None),
        (report.parse_errors, None),
        (report.suppressed, "inSource"),
    ]
    results = [
        _result(v, rule_index, kind)
        for batch, kind in batches
        for v in batch
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "comb-lint",
                        "informationUri": _INFO_URI,
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def format_sarif(report: LintReport) -> str:
    """``report`` serialized as a SARIF 2.1.0 JSON document."""
    return json.dumps(sarif_log(report), indent=2, sort_keys=True)


__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "sarif_log", "format_sarif"]
