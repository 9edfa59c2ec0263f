"""Statistical regression sentinel over run profiles.

Benchmark numbers from single runs are noise (Hunold & Carpen-Amarie,
"MPI Benchmarking Revisited"); this module compares *samples* of runs
nonparametrically — per-metric medians with a bootstrap confidence
interval on the median difference — and only calls something a
regression when the whole interval clears a minimum relative slowdown.

Inputs are the documents the suite already writes: run ledgers
(``results/ledger/ledger.jsonl``, one sample per ``run`` record) and
``metrics.json`` sidecars (``comb … --metrics``).  A *run* argument may
be a single file or a directory of them (every ``*.jsonl`` /
``*metrics*.json`` inside contributes samples).

The bootstrap RNG is seeded, so comparisons are reproducible; two
identical samples always yield a zero-width interval at zero and hence
zero regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Bootstrap resamples for the median-difference CI.
DEFAULT_RESAMPLES = 2000
#: Two-sided confidence level of the interval.
DEFAULT_CONFIDENCE = 0.95
#: A regression additionally needs at least this relative slowdown.
DEFAULT_MIN_REL = 0.05
#: Baseline samples required before a metric is judged at all.
DEFAULT_MIN_RECORDS = 2
#: Seed for the bootstrap RNG (fixed: comparisons must be reproducible).
BOOTSTRAP_SEED = 20260806


def scalar_profile(doc: Dict[str, object]) -> Dict[str, float]:
    """Flatten one run document into ``{metric_name: seconds}``.

    Understands both document shapes the suite writes (ledger ``run``
    records and ``metrics.json`` sidecars); unknown keys are ignored.
    Only time-like scalars are extracted — counters of work volume
    (cache hits, points simulated) are configuration echoes, not
    performance, and would false-positive on grid changes.
    """
    out: Dict[str, float] = {}
    total = doc.get("total_s")
    if isinstance(total, (int, float)):
        out["total_s"] = float(total)
    figures = doc.get("figures")
    if isinstance(figures, dict):
        for fig_id, wall_s in sorted(figures.items()):
            if isinstance(wall_s, (int, float)):
                out[f"figures.{fig_id}"] = float(wall_s)
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            wall = counters.get("executor.simulate_wall_s")
            if isinstance(wall, (int, float)):
                out["executor.simulate_wall_s"] = float(wall)
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for name, hist in sorted(histograms.items()):
                if not (isinstance(hist, dict) and name.endswith("_s")):
                    continue
                count = hist.get("count")
                total_h = hist.get("sum")
                if (
                    isinstance(count, (int, float)) and count
                    and isinstance(total_h, (int, float))
                ):
                    out[f"{name}.mean"] = float(total_h) / float(count)
    return out


def load_samples(run: Path) -> Dict[str, List[float]]:
    """Per-metric samples from a run file or a directory of run files.

    ``.jsonl`` files are read as run ledgers (:mod:`repro.obs.ledger`):
    every ``run`` record inside becomes one sample, so a long-lived
    ledger serves directly as a many-sample history source.
    """
    if run.is_dir():
        paths = sorted(
            set(run.glob("*metrics*.json")) | set(run.glob("*.jsonl"))
        )
    else:
        paths = [run]
    samples: Dict[str, List[float]] = {}
    docs: List[Dict[str, object]] = []
    for path in paths:
        if path.suffix == ".jsonl":
            from .ledger import run_record_samples

            docs.extend(run_record_samples(path))
            continue
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # unreadable / non-JSON: not a sample
        if isinstance(doc, dict):
            docs.append(doc)
    for doc in docs:
        for name, value in scalar_profile(doc).items():
            samples.setdefault(name, []).append(value)
    return samples


@dataclass(frozen=True)
class MetricComparison:
    """One metric's verdict: B (candidate) against A (baseline)."""

    name: str
    n_a: int
    n_b: int
    median_a: float
    median_b: float
    #: Bootstrap CI of ``median(B) - median(A)`` (positive = B slower).
    ci_low: float
    ci_high: float
    regression: bool

    @property
    def rel_delta(self) -> float:
        if self.median_a == 0.0:
            return 0.0
        return (self.median_b - self.median_a) / self.median_a

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready verdict for one metric (``--format json``)."""
        return {
            "name": self.name,
            "n_baseline": self.n_a,
            "n_candidate": self.n_b,
            "median_baseline_s": self.median_a,
            "median_candidate_s": self.median_b,
            "rel_delta": self.rel_delta,
            "ci_low_s": self.ci_low,
            "ci_high_s": self.ci_high,
            "regression": self.regression,
        }


@dataclass
class CompareReport:
    """Full sentinel verdict over every shared metric."""

    comparisons: List[MetricComparison] = field(default_factory=list)
    #: Metrics present in only one side, or with too little history.
    skipped: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if c.regression]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable verdict (``comb compare --format json``).

        Carries the exit status *and its rationale*: a metric regresses
        only when the whole bootstrap CI of the median difference is
        above zero and the relative slowdown clears the minimum — the
        same rule :meth:`format` renders for humans.
        """
        n = len(self.regressions)
        return {
            "schema_version": 1,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "skipped": list(self.skipped),
            "regressions": [c.name for c in self.regressions],
            "exit_code": self.exit_code,
            "exit_rationale": (
                f"{n} regression{'s' if n != 1 else ''}: a metric "
                "regresses only when the entire bootstrap CI of the "
                "median difference is above zero and the relative "
                "slowdown exceeds the minimum threshold"
            ),
        }

    def format(self) -> str:
        if not self.comparisons and not self.skipped:
            return (
                "compare: no overlapping metrics between the two runs "
                "(nothing judged)"
            )
        lines: List[str] = []
        if self.comparisons:
            lines.append(
                f"  {'metric':34s} {'baseline':>10s} {'candidate':>10s} "
                f"{'delta':>8s}  CI of median diff"
            )
            for c in self.comparisons:
                mark = "REGRESSION" if c.regression else "ok"
                lines.append(
                    f"  {c.name:34s} {c.median_a:10.4f} {c.median_b:10.4f} "
                    f"{c.rel_delta:+7.1%}  "
                    f"[{c.ci_low:+.4f}, {c.ci_high:+.4f}] {mark}"
                )
        for name in self.skipped:
            lines.append(f"  {name:34s} (skipped: insufficient history)")
        n = len(self.regressions)
        lines.append(
            f"compare: {n} regression{'s' if n != 1 else ''} across "
            f"{len(self.comparisons)} metric"
            f"{'s' if len(self.comparisons) != 1 else ''}"
        )
        return "\n".join(lines)


def bootstrap_median_diff(
    a: Sequence[float],
    b: Sequence[float],
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = BOOTSTRAP_SEED,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of ``median(b) - median(a)``.

    Degenerate but legal inputs (singleton samples, identical samples)
    collapse the interval rather than erroring: identical runs always
    produce ``(0.0, 0.0)``.
    """
    arr_a = np.asarray(a, dtype=float)
    arr_b = np.asarray(b, dtype=float)
    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, len(arr_a), size=(resamples, len(arr_a)))
    idx_b = rng.integers(0, len(arr_b), size=(resamples, len(arr_b)))
    diffs = np.median(arr_b[idx_b], axis=1) - np.median(arr_a[idx_a], axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(diffs, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def compare_samples(
    samples_a: Dict[str, List[float]],
    samples_b: Dict[str, List[float]],
    min_rel: float = DEFAULT_MIN_REL,
    min_records: int = DEFAULT_MIN_RECORDS,
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
) -> CompareReport:
    """Judge candidate B against baseline A metric by metric.

    A metric regresses only when the *entire* bootstrap interval of the
    median difference is above zero **and** the relative slowdown
    clears ``min_rel`` — a significant-but-tiny drift stays "ok".
    Metrics with fewer than ``min_records`` baseline samples are
    reported as skipped, never judged.
    """
    report = CompareReport()
    for name in sorted(set(samples_a) | set(samples_b)):
        a = samples_a.get(name, [])
        b = samples_b.get(name, [])
        if not a or not b or len(a) < min_records:
            report.skipped.append(name)
            continue
        ci_low, ci_high = bootstrap_median_diff(
            a, b, resamples=resamples, confidence=confidence
        )
        median_a = float(np.median(a))
        median_b = float(np.median(b))
        rel = (median_b - median_a) / median_a if median_a else 0.0
        report.comparisons.append(
            MetricComparison(
                name=name,
                n_a=len(a),
                n_b=len(b),
                median_a=median_a,
                median_b=median_b,
                ci_low=ci_low,
                ci_high=ci_high,
                regression=ci_low > 0.0 and rel > min_rel,
            )
        )
    return report


def compare_paths(
    run_a: Path,
    run_b: Path,
    min_rel: float = DEFAULT_MIN_REL,
    min_records: int = DEFAULT_MIN_RECORDS,
) -> CompareReport:
    """Sentinel entry point over files/directories (see module doc)."""
    return compare_samples(
        load_samples(run_a),
        load_samples(run_b),
        min_rel=min_rel,
        min_records=min_records,
    )

