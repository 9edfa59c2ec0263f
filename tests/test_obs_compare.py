"""Regression sentinel (`repro.obs.compare`)."""

import json

import pytest

from repro.obs import compare_paths, compare_samples
from repro.obs.compare import (
    bootstrap_median_diff,
    load_samples,
    scalar_profile,
)


def _run_doc(total_s, fig04_s, extra_metrics=None):
    """The run-total shape of a ledger ``run`` record."""
    doc = {
        "rec": "run",
        "timestamp": "2026-08-06T00:00:00+00:00",
        "total_s": total_s,
        "figures": {"fig04": fig04_s},
        "claims_ok": True,
    }
    if extra_metrics:
        doc["metrics"] = extra_metrics
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _write_ledger(path, *docs):
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return path


# ------------------------------------------------------------ scalar_profile
def test_scalar_profile_bench_shape():
    prof = scalar_profile(_run_doc(9.5, 1.25))
    assert prof == {"total_s": 9.5, "figures.fig04": 1.25}


def test_scalar_profile_metrics_shape():
    prof = scalar_profile({
        "metrics": {
            "counters": {"executor.simulate_wall_s": 4.0,
                         "executor.points_simulated": 32},
            "histograms": {
                "executor.task_wall_s": {"count": 8, "sum": 2.0},
                "not_time_like": {"count": 4, "sum": 1.0},
            },
        },
    })
    assert prof == {
        "executor.simulate_wall_s": 4.0,
        "executor.task_wall_s.mean": 0.25,
    }
    # Work-volume counters are configuration echoes, never compared.
    assert "executor.points_simulated" not in prof


def test_scalar_profile_garbage_tolerant():
    assert scalar_profile({}) == {}
    assert scalar_profile({"total_s": "fast", "figures": 3}) == {}


# -------------------------------------------------------------- load_samples
def test_load_samples_directory(tmp_path):
    _write_ledger(tmp_path / "a.jsonl", _run_doc(10.0, 1.0))
    _write(tmp_path / "b.metrics.json", _run_doc(11.0, 1.1))
    (tmp_path / "c.metrics.json").write_text("{corrupt")
    (tmp_path / "notes.txt").write_text("ignored")
    samples = load_samples(tmp_path)
    assert sorted(samples["total_s"]) == [10.0, 11.0]


def test_load_samples_single_file(tmp_path):
    path = _write(tmp_path / "metrics.json", _run_doc(5.0, 0.5))
    assert load_samples(path)["total_s"] == [5.0]


# ----------------------------------------------------------------- bootstrap
def test_bootstrap_identical_samples_zero_interval():
    lo, hi = bootstrap_median_diff([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert (lo, hi) == (0.0, 0.0)


def test_bootstrap_deterministic():
    a, b = [1.0, 1.2, 0.9, 1.1], [1.5, 1.6, 1.4, 1.7]
    assert bootstrap_median_diff(a, b) == bootstrap_median_diff(a, b)


def test_bootstrap_detects_clear_shift():
    lo, hi = bootstrap_median_diff([1.0, 1.1, 0.9, 1.05],
                                   [2.0, 2.1, 1.9, 2.05])
    assert lo > 0.5
    assert hi < 1.5


# ----------------------------------------------------------- compare_samples
def test_identical_runs_zero_regressions():
    """Acceptance: comparing a run against itself reports nothing."""
    samples = {"total_s": [3.0, 3.1], "figures.fig04": [1.0, 1.0]}
    report = compare_samples(samples, samples)
    assert report.exit_code == 0
    assert report.regressions == []
    assert len(report.comparisons) == 2


def test_clear_regression_flagged():
    report = compare_samples(
        {"total_s": [1.0, 1.02, 0.98]},
        {"total_s": [2.0, 2.02, 1.98]},
    )
    assert report.exit_code == 1
    (comp,) = report.regressions
    assert comp.name == "total_s"
    assert comp.rel_delta > 0.9


def test_improvement_not_flagged():
    report = compare_samples(
        {"total_s": [2.0, 2.02, 1.98]},
        {"total_s": [1.0, 1.02, 0.98]},
    )
    assert report.exit_code == 0


def test_tiny_significant_drift_below_min_rel_ok():
    """Statistically significant but under the practical threshold."""
    report = compare_samples(
        {"total_s": [1.0, 1.0, 1.0]},
        {"total_s": [1.01, 1.01, 1.01]},
        min_rel=0.05,
    )
    assert report.exit_code == 0
    (comp,) = report.comparisons
    assert comp.ci_low > 0  # significant ...
    assert not comp.regression  # ... but too small to care


def test_insufficient_history_skipped():
    report = compare_samples({"total_s": [1.0]}, {"total_s": [9.0]})
    assert report.comparisons == []
    assert report.skipped == ["total_s"]
    assert report.exit_code == 0


def test_disjoint_metrics_skipped():
    report = compare_samples({"a": [1.0, 1.0]}, {"b": [1.0, 1.0]})
    assert report.comparisons == []
    assert sorted(report.skipped) == ["a", "b"]


def test_report_format_empty():
    report = compare_samples({}, {})
    assert "nothing judged" in report.format()
    assert report.exit_code == 0


def test_report_format_mentions_verdict():
    report = compare_samples(
        {"total_s": [1.0, 1.0, 1.0]}, {"total_s": [3.0, 3.0, 3.0]}
    )
    text = report.format()
    assert "REGRESSION" in text
    assert "total_s" in text


# ------------------------------------------------------------- path-level API
def test_compare_paths_identical_files(tmp_path):
    a = _write_ledger(tmp_path / "a.jsonl", _run_doc(3.0, 1.0))
    b = _write_ledger(tmp_path / "b.jsonl", _run_doc(3.0, 1.0))
    report = compare_paths(a, b, min_records=1)
    assert report.exit_code == 0
    assert len(report.comparisons) == 2


# ---------------------------------------------------------------- CLI seam
def test_cli_compare_identical(tmp_path, capsys):
    from repro.cli import main

    a = _write_ledger(tmp_path / "a.jsonl", _run_doc(3.0, 1.0))
    b = _write_ledger(tmp_path / "b.jsonl", _run_doc(3.0, 1.0))
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "0 regressions" in out


def test_cli_compare_regression_exit_code(tmp_path):
    a = _write_ledger(tmp_path / "a.jsonl", _run_doc(1.0, 1.0))
    b = _write_ledger(tmp_path / "b.jsonl", _run_doc(9.0, 9.0))
    from repro.cli import main

    assert main(["compare", str(a), str(b)]) == 1


def test_cli_compare_missing_path(tmp_path):
    from repro.cli import main

    a = _write_ledger(tmp_path / "a.jsonl", _run_doc(1.0, 1.0))
    assert main(["compare", str(a), str(tmp_path / "nope")]) == 2


def test_cli_compare_one_run_rejected(tmp_path):
    from repro.cli import main

    a = _write_ledger(tmp_path / "a.jsonl", _run_doc(1.0, 1.0))
    assert main(["compare", str(a)]) == 2


def test_cli_compare_too_many_runs(tmp_path):
    from repro.cli import main

    paths = []
    for name in ("a", "b", "c"):
        paths.append(str(_write_ledger(tmp_path / f"{name}.jsonl",
                                       _run_doc(1.0, 1.0))))
    assert main(["compare", *paths]) == 2
