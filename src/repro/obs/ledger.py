"""Persistent run ledger: an append-only JSONL history of every sweep.

"MPI Benchmarking Revisited" (Hunold & Carpen-Amarie) argues that a
single benchmark invocation is a sample, not a measurement — meaning is
in the *history*.  The ledger makes that history a first-class artifact:
every executor-driven run appends one ``point`` record per point
outcome (config hash, method, system, hit/miss, wall, seed) and one
closing ``run`` record (totals, cache stats, compiled flag, replicate
count) to ``results/ledger/ledger.jsonl``.

Append-only JSONL is deliberate: concurrent runs interleave whole lines
(single ``write`` per line, under ``O_APPEND`` semantics), a crashed run
leaves at most one torn final line (tolerated and counted by
:func:`read_records`), and the file needs no migration — old and new
record shapes coexist, distinguished by ``rec`` and ``v``.

The one consumer is ``comb history`` (filter / aggregate / per-figure
wall trend via :func:`history_aggregate`).  The ledger is a log, not a
timing verdict: an A/B speed claim comes from replicated, labelled
``perfbench/`` records compared with ``perfbench/compare.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple

#: Version stamp on every ledger record; additive-only within a version.
LEDGER_SCHEMA_VERSION = 1

#: Where runs append by default (override with ``--ledger-dir``).
DEFAULT_LEDGER_DIR = Path("results/ledger")

#: The single append-only file inside the ledger dir.
LEDGER_FILENAME = "ledger.jsonl"


def ledger_path(ledger_dir: Path) -> Path:
    return ledger_dir / LEDGER_FILENAME


class RunLedger:
    """Appends one run's records to the ledger file.

    Opening errors propagate as ``OSError`` (the CLI renders the
    one-line message); once open, each record is a single flushed
    ``write`` of one line, so concurrent runs interleave cleanly.
    """

    def __init__(self, ledger_dir: Path, run_id: str, cmd: str) -> None:
        self.run_id = run_id
        self.cmd = cmd
        self.points = 0
        ledger_dir.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] = ledger_path(ledger_dir).open("a")

    def _append(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()

    def record_point(
        self,
        key: str,
        kind: str,
        system: str,
        outcome: str,
        wall_s: Optional[float],
        seed: int,
        figure: Optional[str] = None,
    ) -> None:
        """One point outcome: ``hit`` | ``miss`` | ``duplicate``."""
        self.points += 1
        self._append({
            "v": LEDGER_SCHEMA_VERSION,
            "rec": "point",
            "run_id": self.run_id,
            "key": key,
            "kind": kind,
            "system": system,
            "outcome": outcome,
            "wall_s": wall_s,
            "seed": seed,
            "figure": figure,
        })

    def record_points(self, records: List[Dict[str, Any]]) -> None:
        """Every record of an executor's ``point_records``, in order."""
        for record in records:
            self.record_point(**record)

    def record_run(
        self,
        wall_s: float,
        timestamp: str,
        compiled: bool,
        reps: int,
        cache: Dict[str, Any],
        figures: Optional[Dict[str, float]] = None,
        claims_ok: Optional[bool] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """The closing record summarizing the whole run."""
        doc: Dict[str, Any] = {
            "v": LEDGER_SCHEMA_VERSION,
            "rec": "run",
            "run_id": self.run_id,
            "cmd": self.cmd,
            "timestamp": timestamp,
            "wall_s": wall_s,
            # Kept for ledger readers: schema v1 is additive-only.
            "total_s": wall_s,
            "compiled": compiled,
            "reps": reps,
            "points": self.points,
            "cache": {k: cache[k] for k in sorted(cache)},
            "figures": (
                {k: figures[k] for k in sorted(figures)}
                if figures else {}
            ),
            "claims_ok": claims_ok,
        }
        if extra:
            doc.update(extra)
        self._append(doc)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - teardown race
            pass


def read_records(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """All parseable records in file order, plus the corrupt-line count.

    A torn final line from a crashed run (or any non-JSON garbage) is
    skipped and *counted*, never fatal — the ledger's honesty contract
    matches the telemetry queue's: loss is reported, not hidden.
    """
    records: List[Dict[str, Any]] = []
    corrupt = 0
    try:
        text = path.read_text()
    except OSError:
        return [], 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            corrupt += 1
            continue
        if isinstance(doc, dict) and doc.get("rec") in ("point", "run"):
            records.append(doc)
        else:
            corrupt += 1
    return records, corrupt


def filter_records(
    records: List[Dict[str, Any]],
    rec: Optional[str] = None,
    figure: Optional[str] = None,
    system: Optional[str] = None,
    kind: Optional[str] = None,
    last: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """``comb history``'s filters; ``last`` keeps the newest N *runs*
    (none when N < 1).

    ``figure`` matches point records by their ``figure`` field and run
    records by figure presence in their ``figures`` map.
    """
    out = records
    if rec is not None:
        out = [r for r in out if r.get("rec") == rec]
    if figure is not None:
        out = [
            r for r in out
            if r.get("figure") == figure
            or (isinstance(r.get("figures"), dict)
                and figure in r["figures"])
        ]
    if system is not None:
        out = [r for r in out if r.get("system") == system
               or r.get("rec") == "run"]
    if kind is not None:
        out = [r for r in out if r.get("kind") == kind
               or r.get("rec") == "run"]
    if last is not None:
        run_ids: List[str] = []
        for record in out:
            run_id = str(record.get("run_id"))
            if run_id not in run_ids:
                run_ids.append(run_id)
        keep = set(run_ids[-last:]) if last > 0 else set()
        out = [r for r in out if str(r.get("run_id")) in keep]
    return out


def history_aggregate(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic aggregates over ledger records (file order).

    Repeated invocations over the same ledger produce byte-identical
    output: iteration is file order, every map is key-sorted, and no
    wall-clock or randomness enters.
    """
    runs = [r for r in records if r.get("rec") == "run"]
    points = [r for r in records if r.get("rec") == "point"]
    outcomes: Dict[str, int] = {}
    miss_wall_s = 0.0
    miss_n = 0
    per_kind: Dict[str, int] = {}
    for record in points:
        outcome = str(record.get("outcome"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        kind = str(record.get("kind"))
        per_kind[kind] = per_kind.get(kind, 0) + 1
        wall_s = record.get("wall_s")
        if outcome == "miss" and isinstance(wall_s, (int, float)):
            miss_wall_s += float(wall_s)
            miss_n += 1
    trend: Dict[str, List[float]] = {}
    run_walls: List[float] = []
    for record in runs:
        wall_s = record.get("wall_s")
        if isinstance(wall_s, (int, float)):
            run_walls.append(float(wall_s))
        figures = record.get("figures")
        if isinstance(figures, dict):
            for fig_id in sorted(figures):
                fig_wall = figures[fig_id]
                if isinstance(fig_wall, (int, float)):
                    trend.setdefault(fig_id, []).append(float(fig_wall))
    return {
        "runs": len(runs),
        "compiled_runs": sum(1 for r in runs if r.get("compiled") is True),
        "points": len(points),
        "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
        "points_by_kind": {k: per_kind[k] for k in sorted(per_kind)},
        "mean_miss_wall_s": (miss_wall_s / miss_n) if miss_n else None,
        "run_wall_s": run_walls,
        "figure_wall_trend_s": {k: trend[k] for k in sorted(trend)},
    }


def format_history(
    aggregate: Dict[str, Any], corrupt: int = 0
) -> str:
    """Human rendering of :func:`history_aggregate` (deterministic)."""
    lines = [
        f"ledger: {aggregate['runs']} runs, {aggregate['points']} "
        f"point records"
    ]
    outcomes = aggregate.get("outcomes") or {}
    if outcomes:
        lines.append(
            "  outcomes: "
            + ", ".join(f"{k}={v}" for k, v in outcomes.items())
        )
    by_kind = aggregate.get("points_by_kind") or {}
    if by_kind:
        lines.append(
            "  kinds:    "
            + ", ".join(f"{k}={v}" for k, v in by_kind.items())
        )
    mean_miss_wall_s = aggregate.get("mean_miss_wall_s")
    if mean_miss_wall_s is not None:
        lines.append(f"  mean miss wall: {mean_miss_wall_s:.4f}s")
    runs, compiled_runs = aggregate["runs"], aggregate["compiled_runs"]
    if 0 < compiled_runs < runs:
        lines.append(
            f"  mixed cores: {compiled_runs} of {runs} runs compiled, "
            f"{runs - compiled_runs} pure; the wall trends pool both"
        )
    run_walls = aggregate.get("run_wall_s") or []
    if run_walls:
        walls = " ".join(f"{w:.2f}" for w in run_walls)
        lines.append(f"  run wall trend (s): {walls}")
    for fig_id, trend in (aggregate.get("figure_wall_trend_s") or {}).items():
        walls = " ".join(f"{w:.3f}" for w in trend)
        lines.append(f"  {fig_id} wall trend (s): {walls}")
    if corrupt:
        lines.append(f"  ({corrupt} corrupt lines skipped)")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "filter_records",
    "format_history",
    "history_aggregate",
    "ledger_path",
    "read_records",
]
