"""Parity of the executor's observation outputs against recorded fixtures.

The sweep executor feeds four observers from one point lifecycle: the
metrics registry, the run ledger, the NDJSON live stream and the trace
markers that attribution cuts on.  This test runs two fixed commands and
compares what each observer produced with fixtures under
``tests/data/seam_parity``:

* ``comb figures --ids fig04 fig11_ci --per-decade 1 --no-cache
  --progress-stream S --ledger-dir L``: stream events emitted by the
  executor, and ledger records;
* ``comb trace fig12 --attribution``: the Chrome trace, CSV timeline and
  attribution JSON, byte for byte (compared by SHA-256), and the metric
  names and counts of ``fig12.metrics.json``.

The sim side is pinned the same way: one GM PWW point and an 8-rank
Portals halo3d on a k=4 fat-tree run with the sanitizer and the observer
ambient together, so one trace stream and the matching-queue events feed
both.  Each case pins the observer's Chrome trace, CSV timeline and
``to_dict()``, the sanitizer's violation counts (all zero) and a digest
of the exact record stream the sanitizer's monitors see.

Wall-clock fields, pids and run ids vary between runs and are masked.
Cache keys hash the simulator source, so they are compared by identity
(the order in which distinct keys first appear), not by value.  A change
that legitimately alters simulated events or the stream vocabulary must
re-record the fixtures::

    PYTHONPATH=src python tests/test_seam_parity.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.config import gm_system, portals_system
from repro.core import PwwConfig, run_pww
from repro.obs import (
    Observer,
    use_observer,
    write_chrome_trace,
    write_csv_timeline,
)
from repro.patterns import PatternConfig, run_pattern
from repro.verify import (
    InvariantMonitor,
    Sanitizer,
    default_monitors,
    use_sanitizer,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "data" / "seam_parity"

#: Stream kinds the executor emits (the hub's own ``progress`` /
#: ``stall`` / ``run_*`` events depend on timing).
LIFECYCLE_KINDS = ("batch", "point_cached", "point_start", "point_end",
                   "figure_start", "figure_end")
STREAM_MASK = ("t_wall_s", "pid", "wall_s", "run_id")
LEDGER_MASK = ("wall_s", "total_s", "timestamp", "run_id", "compiled")
FIGURE_IDS = ("fig04", "fig11_ci")
TRACE_FILES = ("fig12.trace.json", "fig12.timeline.csv",
               "fig12.attribution.json")
#: Sim-side cases, each one point under the sanitizer and the observer.
SIM_CASES = ("gm_pww", "portals_halo3d")
SIM_FILES = ("trace.json", "timeline.csv", "observer.json", "records.txt")


def _python(*args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _comb(*args: str) -> None:
    _python("-m", "repro.cli", *args)


class _RecordingMonitor(InvariantMonitor):
    """Logs each record the sanitizer dispatches as one text line:
    ``time source kind``, plus the request id (posted queues) or the
    message id (unexpected queues) of ``q_*`` records.  Message ids come
    from a process-wide counter, so they are renumbered by first
    appearance."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.lines: List[str] = []
        self._msg_ids: Dict[int, int] = {}

    def on_record(self, rec: Any) -> None:
        line = f"{rec.time!r} {rec.source} {rec.kind}"
        if rec.kind.startswith("q_unex_"):
            msg = self._msg_ids.setdefault(rec.detail.msg_id,
                                           len(self._msg_ids))
            line += f" msg={msg}"
        elif rec.kind.startswith("q_"):
            line += f" req={rec.detail.req_id}"
        self.lines.append(line)


def _sim_point(case: str) -> None:
    if case == "gm_pww":
        run_pww(gm_system(), PwwConfig())
    else:
        run_pattern(portals_system(), PatternConfig(
            pattern="halo3d", ranks=8, topology="fattree", arity=4))


def run_sim_cases(out: Path) -> None:
    """Run every sim case with the sanitizer and the observer ambient
    together, writing each case's pinned outputs under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for case in SIM_CASES:
        recorder = _RecordingMonitor()
        sanitizer = Sanitizer(monitors=default_monitors() + [recorder])
        observer = Observer()
        with use_sanitizer(sanitizer), use_observer(observer):
            _sim_point(case)
        sanitizer.finalize()
        events = observer.events()
        dropped = observer.tracer.dropped()
        write_chrome_trace(events, out / f"{case}.trace.json", label=case,
                           dropped=dropped)
        write_csv_timeline(events, out / f"{case}.timeline.csv",
                           dropped=dropped)
        (out / f"{case}.observer.json").write_text(
            json.dumps(observer.to_dict(), indent=1, sort_keys=True) + "\n")
        (out / f"{case}.sanitizer.json").write_text(
            json.dumps(sanitizer.counts(), sort_keys=True) + "\n")
        (out / f"{case}.records.txt").write_text(
            "\n".join(recorder.lines) + "\n")


def run_commands(work: Path) -> None:
    """Run both fixed commands and the sim cases with every output under
    ``work``."""
    _comb("figures", "--ids", *FIGURE_IDS, "--per-decade", "1",
          "--no-cache", "--no-plots",
          "--progress-stream", str(work / "stream.ndjson"),
          "--ledger-dir", str(work / "ledger"), "--out", str(work / "out"))
    _comb("trace", "fig12", "--attribution", "--out", str(work / "trace"))
    # Its own process, so message ids start where a fresh run's do.
    _python(__file__, "--sim-cases", str(work / "sim"))


class _KeyIds:
    """Cache key -> ordinal of its first appearance."""

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}

    def __call__(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        if doc.get("key") is not None:
            doc["key"] = self.ids.setdefault(doc["key"], len(self.ids))
        return doc


def _lines(path: Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def stream_events(work: Path) -> List[Dict[str, Any]]:
    key_ids = _KeyIds()
    return [
        key_ids({k: v for k, v in doc.items() if k not in STREAM_MASK})
        for doc in _lines(work / "stream.ndjson")
        if doc["kind"] in LIFECYCLE_KINDS
    ]


def ledger_records(work: Path) -> List[Dict[str, Any]]:
    key_ids = _KeyIds()
    records = []
    for doc in _lines(work / "ledger" / "ledger.jsonl"):
        doc = key_ids({k: v for k, v in doc.items() if k not in LEDGER_MASK})
        if "figures" in doc:
            doc["figures"] = sorted(doc["figures"])
        records.append(doc)
    return records


def metrics_profile(work: Path) -> Dict[str, Any]:
    doc = json.loads((work / "trace" / "fig12.metrics.json").read_text())
    metrics = doc["metrics"]
    return {
        "names": {section: sorted(series)
                  for section, series in sorted(metrics.items())},
        "count_counters": {name: value for name, value
                           in sorted(metrics["counters"].items())
                           if isinstance(value, int)},
        "histogram_counts": {name: hist["count"] for name, hist
                             in sorted(metrics["histograms"].items())},
        "executor": doc["executor"],
        "trace": doc["trace"],
    }


def trace_digests(work: Path) -> Dict[str, str]:
    return {name: hashlib.sha256((work / "trace" / name).read_bytes())
            .hexdigest() for name in TRACE_FILES}


def sim_profile(work: Path) -> Dict[str, Any]:
    sim = work / "sim"
    return {
        case: {
            "sanitizer": json.loads(
                (sim / f"{case}.sanitizer.json").read_text()),
            "records": len(
                (sim / f"{case}.records.txt").read_text().splitlines()),
            "sha256": {
                name: hashlib.sha256((sim / f"{case}.{name}").read_bytes())
                .hexdigest() for name in SIM_FILES},
        }
        for case in SIM_CASES
    }


def _profiles(work: Path) -> Dict[str, Any]:
    return {
        "stream": stream_events(work),
        "ledger": ledger_records(work),
        "metrics": metrics_profile(work),
        "trace": trace_digests(work),
        "sim": sim_profile(work),
    }


def _fixture(name: str) -> Any:
    return json.loads((FIXTURES / f"{name}.json").read_text())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("seam")
    run_commands(path)
    return path


@pytest.fixture(scope="module")
def outputs(work):
    return _profiles(work)


def test_stream_lifecycle_events_match(outputs):
    assert outputs["stream"] == _fixture("stream")


def test_ledger_records_match(outputs):
    assert outputs["ledger"] == _fixture("ledger")


def test_ledger_point_records_carry_their_figure(outputs):
    figures = [r["figure"] for r in outputs["ledger"] if r["rec"] == "point"]
    assert figures and set(figures) == set(FIGURE_IDS)
    # Figures run in order, so their records do too.
    assert figures == sorted(figures, key=FIGURE_IDS.index)


def test_history_counts_a_figures_points(work, outputs, capsys):
    from repro.cli import main

    # Points the stream saw between fig04's figure_start and figure_end.
    in_fig, expected = False, 0
    for doc in outputs["stream"]:
        if doc["kind"] in ("figure_start", "figure_end"):
            in_fig = doc["kind"] == "figure_start" and doc["figure"] == "fig04"
        elif in_fig and doc["kind"] in ("point_start", "point_cached"):
            expected += 1
    assert expected > 0
    assert main(["history", "--figure", "fig04",
                 "--ledger-dir", str(work / "ledger")]) == 0
    assert f"{expected} point records" in capsys.readouterr().out


def test_metrics_names_and_counts_match(outputs):
    assert outputs["metrics"] == _fixture("metrics")


def test_trace_exports_byte_identical(outputs):
    assert outputs["trace"] == _fixture("trace")


@pytest.mark.parametrize("case", SIM_CASES)
def test_sim_seam_outputs_match(outputs, case):
    assert outputs["sim"][case] == _fixture("sim")[case]


@pytest.mark.parametrize("case", SIM_CASES)
def test_sim_sanitizer_sees_every_record_and_no_violation(outputs, case):
    got = outputs["sim"][case]
    assert got["records"] > 0
    assert set(got["sanitizer"].values()) == {0}


def _record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        profiles = _profiles(Path(tmp))
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, doc in profiles.items():
        (FIXTURES / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    elif len(sys.argv) == 3 and sys.argv[1] == "--sim-cases":
        run_sim_cases(Path(sys.argv[2]))
    else:
        sys.exit("usage: test_seam_parity.py --record | --sim-cases DIR")
