"""Report rendering: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from .rules import rule_catalog
from .runner import LintReport


def format_text(report: LintReport) -> str:
    """Human-readable report (one ``path:line:col`` line per violation)."""
    lines: List[str] = []
    for v in report.parse_errors + report.violations:
        lines.append(
            f"{v.path}:{v.line}:{v.col + 1}: {v.rule} [{v.severity}] "
            f"{v.message}"
        )
        if v.snippet:
            lines.append(f"    {v.snippet}")
    counts = _rule_counts(report)
    if counts:
        breakdown = ", ".join(f"{r}×{n}" for r, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"comb-lint: {len(report.violations)} violation(s) "
            f"({breakdown}) in {report.files_checked} file(s)"
        )
    else:
        tail = (
            f" ({len(report.suppressed)} suppressed)"
            if report.suppressed else ""
        )
        lines.append(
            f"comb-lint: clean — {report.files_checked} file(s){tail}"
        )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report (stable key order)."""
    doc = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "counts": {
            "new": len(report.violations),
            "suppressed": len(report.suppressed),
            "parse_errors": len(report.parse_errors),
        },
        "by_rule": _rule_counts(report),
        "violations": [v.to_dict() for v in report.violations],
        "parse_errors": [v.to_dict() for v in report.parse_errors],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def format_rule_list() -> str:
    """The ``--list-rules`` catalog."""
    lines = []
    for rule_id, summary in rule_catalog().items():
        lines.append(f"{rule_id:9s} {summary}")
    return "\n".join(lines)


def _rule_counts(report: LintReport) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for v in report.violations:
        counts[v.rule] = counts.get(v.rule, 0) + 1
    return counts


__all__ = ["format_text", "format_json", "format_rule_list"]
