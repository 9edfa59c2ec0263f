"""COMB simulator benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time in fresh interpreters, then timed passes until ``--seconds`` would
be exceeded (at least two).  Its timings are host-speed corrected
(``calibrate.py``); the raw ones are kept in the record.  ``--trace 1``
runs one untraced and one traced pass (spans plus cProfile) and reports
the per-layer metrics.
Every pass is checked against its references.  The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; the full record,
with its labels, is also written under ``.perfbench/`` in the checkout.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
MIN_PASSES = 2


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def _percentile(values: Sequence[float], pct: int) -> float:
    """The Harrell-Davis estimate of the ``pct`` percentile: a weighted
    mean of every order statistic, with Beta weights centred on the
    percentile.  One order statistic is a poor estimate when samples
    are few and clustered: ``observed`` has 15 points a pass, seven of
    them twice as long as the others, and its plain median sat on the
    edge of the slow cluster and moved by 20% between runs."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts attempted and failed outputs, points and claims."""

    def __init__(self, workload: Any, ctx: Any) -> None:
        self.workload = workload
        self.ctx = ctx
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() \
            else {}
        self.refs: Dict[str, Any] = refs.get(workload.name, {})
        self.points = 0
        self.points_failed = 0
        self.claims = 0
        self.claims_failed = 0
        self.problems: List[str] = []
        self.first: Optional[Any] = None
        self._want: Dict[str, Optional[str]] = {}

    def reference(self, name: str) -> Optional[str]:
        """The sha256 output ``name`` must have: of its committed file,
        else as recorded in ``references.json``."""
        if name not in self._want:
            expected = self.workload.expected(self.ctx, name)
            self._want[name] = _digest(expected) if expected is not None \
                else self.refs.get(name)
        return self._want[name]

    def fail(self, message: str) -> None:
        """A failed check that is not an output: one failed point."""
        self.points += 1
        self.points_failed += 1
        self.problems.append(message)

    def check_pass(self, res: Any) -> None:
        for name, data in res.outputs.items():
            want = self.reference(name.split("@")[0])
            self.points += res.points[name]
            if want != _digest(data):
                self.points_failed += res.points[name]
                self.problems.append(
                    f"{name}: output differs from its reference"
                    if want else f"{name}: no reference recorded")
        self.claims += len(res.claims)
        self.claims_failed += res.claims.count(False)
        for key, value in self.refs.items():
            if key in res.counts and res.counts[key] != value:
                self.fail(f"{key} = {res.counts[key]}, reference {value}")
        if res.counts.get("verify.violations"):
            self.fail(f"{res.counts['verify.violations']} sanitizer "
                      "violations")
        if self.workload.name == "warm-replay" and (
                res.counts["executor.misses"]
                or res.counts["sim.events"]):
            self.fail("warm-replay simulated points it should have read")
        if self.first is None:
            self.first = res
        else:
            self.same_as_first(res, "pass")

    def same_as_first(self, res: Any, what: str) -> None:
        """Exact counts and output bytes must repeat."""
        first = self.first
        for key, value in first.counts.items():
            if res.counts.get(key) != value:
                self.fail(f"{key}: {res.counts.get(key)} in a later {what}, "
                          f"{value} in the first")
        if {k: _digest(v) for k, v in res.outputs.items()} != \
                {k: _digest(v) for k, v in first.outputs.items()}:
            self.fail(f"outputs of a later {what} differ from the first")

    @property
    def attempted(self) -> int:
        return self.points + self.claims

    @property
    def failed(self) -> int:
        return self.points_failed + self.claims_failed


def _run_passes(workload: Any, ctx: Any, checker: Checker,
                seconds: float) -> List[Any]:
    """Timed passes until the next would end after ``seconds``."""
    passes: List[Any] = []
    spent = 0.0
    while True:
        gc.collect()
        res = workload.run_pass(ctx)
        checker.check_pass(res)
        passes.append(res)
        spent += res.wall_s
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and spent + typical > seconds:
            return passes


def _point_samples(passes: List[Any],
                   seconds: Callable[[float, float], float]) -> List[float]:
    """Per-point host seconds of every pass, each interval timed by
    ``seconds(start, end)``."""
    return [seconds(start, end) / points for res in passes
            for start, end, points in res.point_times if points]


def _end_to_end(wall_s: Sequence[float], point_s: Sequence[float],
                setup_s: Sequence[float], tail_pct: int,
                ) -> Dict[str, Tuple[float, str]]:
    return {
        "wall_s": (statistics.median(wall_s), "s"),
        "point_host_s.p50": (_percentile(point_s, 50), "s"),
        "point_host_s.tail": (_percentile(point_s, tail_pct), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def measure(workload: Any, ctx: Any, checker: Checker, args: Any,
            ) -> Tuple[Dict[str, Tuple[float, str]],
                       Dict[str, Tuple[float, str]]]:
    """The untraced run: the end-to-end metrics, host-speed corrected,
    and the same metrics raw."""
    from calibrate import Calibrator
    from child import time_setup

    setup_raw, setup = zip(*[
        time_setup(workload.name, args.seed, ctx.fresh("setup"))
        for _ in range(SETUP_SAMPLES)])
    workload.prepare(ctx)
    with Calibrator() as cal:
        passes = _run_passes(workload, ctx, checker, args.seconds)

    def raw(start: float, end: float) -> float:
        return end - start

    raw_metrics = _end_to_end(
        [p.wall_s for p in passes], _point_samples(passes, raw),
        setup_raw, workload.tail_pct)
    metrics = _end_to_end(
        [cal.corrected(p.start, p.end) for p in passes],
        _point_samples(passes, cal.corrected), setup, workload.tail_pct)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw_metrics["host_slowness.p50"] = (
        statistics.median(cal.slowness), "ratio")
    return metrics, raw_metrics


def traced(workload: Any, ctx: Any, checker: Checker,
           ) -> Tuple[Dict[str, Tuple[float, str]], List[dict]]:
    """One untraced and one traced pass: the per-layer metrics."""
    from probes import LAYERS, Spans, layer_self_times
    from workloads import WORKLOADS

    workload.prepare(ctx)
    gc.collect()
    plain = workload.run_pass(ctx)
    checker.check_pass(plain)
    spans = Spans()
    profiler = cProfile.Profile()
    gc.collect()
    with ctx.probe.tracing(spans):
        ctx.profiler = profiler
        try:
            res = workload.run_pass(ctx)
        finally:
            ctx.profiler = None
    checker.check_pass(res)
    self_s = layer_self_times(profile=profiler)

    def total(prefix: str) -> float:
        return sum(end - start for name, start, end, _p, _pt in spans.rows
                   if name.startswith(prefix))

    counts = res.counts
    gets, puts = spans.durations("PointCache.get"), \
        spans.durations("PointCache.put")
    m: Dict[str, Tuple[float, str]] = {
        "sim.events": (counts["sim.events"], "count"),
        "sim.events_per_host_s": (
            counts["sim.events"] / plain.wall_s if plain.wall_s else 0.0,
            "1/s"),
        "hardware.packets_forwarded": (
            counts["hardware.packets_forwarded"], "count"),
        "os.interrupts": (counts["os.interrupts"], "count"),
        "mpi.msgs": (counts["mpi.msgs"], "count"),
        "core.polls": (counts["core.polls"], "count"),
        "core.sim_s": (counts["core.sim_s"], "sim_s"),
        "executor.lookups": (counts["executor.lookups"], "count"),
        "executor.hits": (counts["executor.hits"], "count"),
        "executor.misses": (counts["executor.misses"], "count"),
        "executor.hit_rate": (
            counts["executor.hits"] / counts["executor.lookups"]
            if counts["executor.lookups"] else 0.0, "ratio"),
        "executor.points_simulated": (
            counts["executor.points_simulated"], "count"),
        "executor.lookup_s.p50": (_percentile(gets, 50), "s"),
        "executor.lookup_s.p95": (_percentile(gets, 95), "s"),
        "executor.store_s.p50": (_percentile(puts, 50), "s"),
        "executor.key_s": (total("task_key"), "s"),
        "executor.cache_bytes_written": (
            counts["executor.cache_bytes_written"], "B"),
        "patterns.world_build_s": (
            sum(end - start for name, start, end, _p, _pt in spans.rows
                if name.startswith("build_pattern_world.")
                and int(name.rsplit(".", 1)[1]) >= 16), "s"),
        "analysis.claims_s": (total("claims"), "s"),
        "analysis.export_s": (total("export_figures"), "s"),
        "obs.events_recorded": (counts["obs.events_recorded"], "count"),
        "obs.events_dropped": (counts["obs.events_dropped"], "count"),
        "obs.stitch_s": (total("obs.stitch"), "s"),
        "obs.attribution_s": (total("obs.attribution"), "s"),
        "obs.export_s": (total("obs.export"), "s"),
        "obs.export_bytes": (plain.extra.get("obs.export_bytes", 0), "B"),
        "obs.ledger_lines": (counts["obs.ledger_lines"], "count"),
        "obs.stream_lines": (plain.extra.get("obs.stream_lines", 0), "count"),
        "verify.violations": (counts["verify.violations"], "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["bench.unattributed_s"] = (
        res.wall_s - sum(self_s.get(layer, 0.0) for layer in LAYERS), "s")
    m["bench.trace_overhead_ratio"] = (res.wall_s / plain.wall_s, "ratio")
    for other in WORKLOADS.values():
        for fig_id in other.figures:
            m[f"analysis.figure_cold_s.{fig_id}"] = (0.0, "s")
    for fig_id in workload.figures:
        gc.collect()
        m[f"analysis.figure_cold_s.{fig_id}"] = (
            workload.figure_cold_s(ctx, fig_id), "s")
    return m, spans.to_dicts()


def labels(workload: Any, args: Any) -> Dict[str, Any]:
    from calibrate import REF_SLICE_S, SLICE_EVENTS
    from repro import compiled
    from workloads import PER_DECADE

    return {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "per_decade": PER_DECADE,
        "core": "compiled" if compiled.active() else "pure",
        "jobs": 1,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "tail_pct": workload.tail_pct,
        "calibration": (f"{SLICE_EVENTS} events/{REF_SLICE_S} s"
                        if not args.trace else "none"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.pop("COMB_COMPILED", None)
    # One CPU for every thread (warm-replay's telemetry drain thread too)
    # and every child: on a shared host a thread waiting for the GIL
    # held on another, preempted, virtual CPU would time the neighbours.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from child import stop_resource_tracker
    from probes import Probe
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work = OUT_DIR / f"scratch-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    probe = Probe(args.seed)
    ctx = Context(ROOT, work, probe)
    checker = Checker(workload, ctx)
    spans: List[dict] = []
    metrics: Dict[str, Tuple[float, str]] = {}
    raw_metrics: Dict[str, Tuple[float, str]] = {}
    try:
        with probe.installed():
            if args.trace:
                metrics, spans = traced(workload, ctx, checker)
            else:
                metrics, raw_metrics = measure(workload, ctx, checker, args)
    except Exception:  # a run that raises reports no result
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    for problem in checker.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if not metrics:
        return 1
    record = {
        "labels": labels(workload, args),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "claims_failed": checker.claims_failed,
        "points_failed_frac": (checker.points_failed / checker.points
                               if checker.points else 0.0),
        "problems": checker.problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in raw_metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-trace{args.trace}-seed{args.seed}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if spans:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(spans))
    print("labels", json.dumps(record["labels"], sort_keys=True))
    print(f"claims_failed {checker.claims_failed} points_failed_frac "
          f"{record['points_failed_frac']}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
