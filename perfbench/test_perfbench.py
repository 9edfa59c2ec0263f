"""Self-checks of the benchmark (slow: every workload runs traced twice).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from compare import label_mismatch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("sim.events", "hardware.packets_forwarded", "os.interrupts",
         "mpi.msgs", "core.polls", "core.sim_s", "executor.lookups",
         "executor.hits", "executor.misses", "executor.points_simulated",
         "executor.cache_bytes_written", "obs.events_recorded",
         "obs.events_dropped", "obs.ledger_lines", "verify.violations")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT,
        seconds: int = 1) -> Tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result(stdout: str) -> Dict[str, Any]:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload: str) -> None:
    """Two traced runs (at two seeds) agree on every exact count; each run
    already requires its traced pass to match its untraced pass."""
    docs = []
    for seed in (0, 7):
        code, stdout = run(workload, seed, trace=1)
        assert code == 0
        doc = result(stdout)
        assert doc["correct"] and doc["failed"] == 0, stdout
        assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        docs.append(doc)
    for name in EXACT:
        assert docs[0]["metrics"][name] == docs[1]["metrics"][name], name
    assert docs[0]["metrics"]["verify.violations"]["value"] == 0
    layers = sum(v["value"] for k, v in docs[0]["metrics"].items()
                 if k.endswith(".self_s"))
    assert layers > 0


def _git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--ignored=no"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def test_untraced_run_reports_and_leaves_tree_unchanged() -> None:
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = _git_status()
    code, stdout = run("observed", seed=3, trace=0)
    assert code == 0
    doc = result(stdout)
    assert doc["correct"], stdout
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert _git_status() == before


def test_refuses_without_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run("paper-cold", seed=0, trace=0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in stdout


def test_compare_refuses_differing_labels() -> None:
    labels = {"workload": "paper-cold", "trace": 0, "core": "pure",
              "per_decade": 2, "seed": 1}
    records: List[Dict[str, Any]] = [
        {"labels": labels}, {"labels": dict(labels, seed=2)}]
    assert label_mismatch(records) == ""
    records.append({"labels": dict(labels, per_decade=1)})
    assert "per_decade" in label_mismatch(records)


def test_correction_removes_slices_and_divides_by_slowness() -> None:
    cal = Calibrator()
    cal.starts = [float(i) for i in range(10)]
    cal.ends = [i + 0.01 for i in range(10)]
    cal._smooth = [1.0] * 5 + [2.0] * 5
    assert cal.corrected(0.5, 0.6) == pytest.approx(0.1)
    assert cal.corrected(4.5, 5.5) == pytest.approx(0.5 / 1 + 0.49 / 2)
    assert cal.corrected(0.01, 2.0) == pytest.approx(1.98)
    assert cal.corrected(9.5, 10.0) == pytest.approx(0.5 / 2)


def test_calibrator_slices_while_running() -> None:
    with Calibrator() as cal:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(cal.starts) >= 4
    assert all(s > 0 for s in cal.slowness)
    assert 0 < cal.corrected(cal.ends[0], cal.starts[-1]) < 0.3
