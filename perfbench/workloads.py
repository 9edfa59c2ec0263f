"""The four benchmark workloads.

Each workload runs passes in-process through the program's public API,
serially, on the pure-Python core.  A pass returns what it produced
(output bytes, claim verdicts, per-point host times) and the exact
counts read from public counters and result fields; ``run.py`` times,
checks and reports them.  ``README.md`` in this directory says why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import compiled
from repro.analysis import FigureData, export_figures, run_figure
from repro.analysis.report import FigureReport
from repro.config import get_system
from repro.core.executor import PointTask, code_salt
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    Observer,
    RunLedger,
    StreamWriter,
    TelemetryChannel,
    TelemetryHub,
    attribute_events,
    stitch,
    use_observer,
    write_chrome_trace,
    write_csv_timeline,
    write_metrics,
)
from repro.patterns import PatternConfig

from probes import Probe

#: Full-resolution grid: what ``comb figures`` and the committed
#: ``results/`` use.
PER_DECADE = 2
PAPER_FIGS = tuple(f"fig{n:02d}" for n in range(4, 18))
#: Sweeps over the warm figure set per warm-replay pass (one sweep is
#: about 0.15 s, too short to time on its own).
WARM_SWEEPS = 10

#: Counts that must repeat exactly between passes, runs, and traced and
#: untraced passes.
EXACT_COUNTS = (
    "sim.events", "hardware.packets_forwarded", "os.interrupts",
    "mpi.msgs", "core.polls", "core.sim_s", "executor.lookups",
    "executor.hits", "executor.misses", "executor.points_simulated",
    "executor.cache_bytes_written", "obs.events_recorded",
    "obs.events_dropped", "obs.ledger_lines", "verify.violations",
)


@dataclasses.dataclass
class PassResult:
    """What one pass produced, read outside its timed region."""

    wall_s: float = 0.0
    #: ``time.perf_counter()`` at the start and end of the timed block.
    start: float = 0.0
    end: float = 0.0
    #: ``(start, end, points)`` perf_counter interval of host work on
    #: ``points`` points: one simulated point, or on warm-replay one
    #: figure served from the cache.
    point_times: List[Tuple[float, float, int]] = dataclasses.field(
        default_factory=list)
    #: Output name -> bytes; ``name@i`` is the i-th repeat of ``name``.
    outputs: Dict[str, bytes] = dataclasses.field(default_factory=dict)
    #: Output name -> number of sweep points the output carries.
    points: Dict[str, int] = dataclasses.field(default_factory=dict)
    claims: List[bool] = dataclasses.field(default_factory=list)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-pass figures that are not exact counts.
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)


class Context:
    """Run-wide state: the checkout, a scratch directory inside it, the
    probe, and an optional profiler switched on around timed regions."""

    def __init__(self, root: Path, work: Path, probe: Probe) -> None:
        self.root = root
        self.work = work
        self.probe = probe
        self.profiler: Any = None
        self._n = 0

    def fresh(self, name: str) -> Path:
        """A new empty directory under the scratch directory."""
        self._n += 1
        path = self.work / f"{name}-{self._n}"
        path.mkdir(parents=True)
        return path

    @contextmanager
    def timed(self, result: PassResult) -> Iterator[None]:
        """Time the block into ``result.wall_s`` (profiling it when a
        profiler is set)."""
        if self.profiler is not None:
            self.profiler.enable()
        result.start = time.perf_counter()
        try:
            yield
        finally:
            result.end = time.perf_counter()
            result.wall_s = result.end - result.start
            if self.profiler is not None:
                self.profiler.disable()


def _figure(probe: Probe, fig_id: str, executor: Any) -> FigureReport:
    with probe.span(f"run_figure:{fig_id}"):
        return run_figure(fig_id, per_decade=PER_DECADE, executor=executor)


def _export(probe: Probe, reports: Sequence[FigureReport], out: Path) -> None:
    with probe.span("export_figures"):
        export_figures([r.figure for r in reports], out)


def _fig_points(fig: FigureData) -> int:
    return sum(len(c.x) for c in fig.curves)


def _collect_figures(result: PassResult, reports: Sequence[FigureReport],
                     out: Path, tag: str = "") -> None:
    for rep in reports:
        name = f"{rep.figure.fig_id}.json{tag}"
        result.outputs[name] = (out / f"{rep.figure.fig_id}.json").read_bytes()
        result.points[name] = _fig_points(rep.figure)
        result.claims += [c.ok for c in rep.claims]


def _point_bytes(point: Any) -> bytes:
    return json.dumps(dataclasses.asdict(point), sort_keys=True).encode()


def _renumbered_msg_ids(doc: Dict[str, Any]) -> bytes:
    """An attribution export with message ids renumbered in order of
    first appearance.  Ids come from a process-wide counter
    (``repro.transport.packets``), so the raw export depends on what the
    process simulated before; everything else is compared as written."""
    ids: Dict[int, int] = {}
    for span in doc["spans"]:
        span["msg_id"] = ids.setdefault(span["msg_id"], len(ids))
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _counter(registry: MetricsRegistry, name: str) -> float:
    return registry.to_dict()["counters"].get(name, 0)


def _executor_counts(counts: Dict[str, float], stats: Sequence[Any],
                     registry: MetricsRegistry) -> None:
    """Add the lifetime counts of executors, given their ``stats``, which
    all fed ``registry``, into ``counts``."""
    for key, value in (
        ("sim.events", _counter(registry, "sim.events_processed")),
        ("executor.points_simulated",
         _counter(registry, "executor.points_simulated")),
        ("executor.lookups", sum(st.lookups for st in stats)),
        ("executor.hits", sum(st.hits for st in stats)),
        ("executor.misses", sum(st.misses for st in stats)),
    ):
        counts[key] = counts.get(key, 0) + value


def _finish_counts(result: PassResult, probe: Probe) -> None:
    for key, value in probe.counts.items():
        if key != "points":
            result.counts[key] = value
    for key in EXACT_COUNTS:
        result.counts.setdefault(key, 0)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _rmtree(*paths: Path) -> None:
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


class Workload:
    """One named workload; subclasses define a pass."""

    name = ""
    #: Figures regenerated alone, each by a fresh executor, for
    #: ``analysis.figure_cold_s.<fig_id>``.
    figures: Tuple[str, ...] = ()
    #: Percentile reported as ``point_host_s.tail``: the highest that
    #: leaves at least ten samples beyond it in a two-pass run.
    tail_pct = 95

    def prepare(self, ctx: Context) -> None:
        """Untimed set-up before the first pass."""

    def open(self, ctx: Context, ready: Callable[[], None]) -> None:
        """Do what a pass does before its first point dispatch, call
        ``ready``, then undo it: ``setup_s`` times this in a fresh
        interpreter."""
        with ctx.probe.executor(cache=self.cold_cache(ctx),
                                metrics=MetricsRegistry(), point_log=True):
            code_salt()
            ready()

    def run_pass(self, ctx: Context) -> PassResult:
        raise NotImplementedError

    def cold_cache(self, ctx: Context) -> Any:
        """The cache that set-up opens and that a lone-figure
        regeneration reads (none: simulate)."""
        return None

    def figure_cold_s(self, ctx: Context, fig_id: str) -> float:
        with ctx.probe.executor(cache=self.cold_cache(ctx)) as executor:
            t0 = time.perf_counter()
            run_figure(fig_id, per_decade=PER_DECADE, executor=executor)
            return time.perf_counter() - t0

    def expected(self, ctx: Context, name: str) -> Optional[bytes]:
        """The committed ``results/<name>`` export, if there is one."""
        path = ctx.root / "results" / name
        return path.read_bytes() if path.is_file() else None


class PaperCold(Workload):
    """Figures 4-17 from an empty cache and memo: the cache write side."""

    name = "paper-cold"
    figures = PAPER_FIGS

    def run_pass(self, ctx: Context) -> PassResult:
        probe = ctx.probe
        probe.reset_counts()
        cache_dir, out = ctx.fresh("cache"), ctx.fresh("out")
        registry = MetricsRegistry()
        result = PassResult()
        with ctx.timed(result):
            with probe.executor(cache=probe.cache(str(cache_dir)),
                                metrics=registry, point_log=True) as ex:
                reports = [_figure(probe, f, ex) for f in PAPER_FIGS]
                _export(probe, reports, out)
        _collect_figures(result, reports, out)
        result.point_times = list(probe.sim_times)
        _executor_counts(result.counts, [ex.stats], registry)
        result.counts["executor.cache_bytes_written"] = _dir_bytes(cache_dir)
        _finish_counts(result, probe)
        _rmtree(cache_dir, out)
        return result


class WarmReplay(Workload):
    """The paper figures plus fig11_ci, served entirely from a cache
    filled before timing, with ledger, metrics and stream attached.

    A per-point sample is one figure's host time divided by the points
    it looked up: single cache reads take about 0.1 ms, and their median
    moves by 20-50% between runs with the state of a shared host, which
    host-speed correction does not follow at that scale.
    """

    name = "warm-replay"
    figures = PAPER_FIGS + ("fig11_ci",)
    cache_dir: Optional[Path] = None

    def prepare(self, ctx: Context) -> None:
        from child import fill_cache_in_child

        self.cache_dir = ctx.fresh("warm-cache")
        fill_cache_in_child(self.cache_dir, ctx.probe.seed, self.figures)
        # Write the fill back now, not during the timed passes.
        os.sync()

    def cold_cache(self, ctx: Context) -> Any:
        if self.cache_dir is None:
            return ctx.probe.cache(str(ctx.fresh("c")))
        return ctx.probe.cache(str(self.cache_dir))

    def open(self, ctx: Context, ready: Callable[[], None]) -> None:
        channels = _Channels(ctx)
        try:
            with ctx.probe.executor(cache=self.cold_cache(ctx),
                                    metrics=MetricsRegistry(),
                                    telemetry=channels.channel,
                                    point_log=True):
                code_salt()
                ready()
        finally:
            channels.close()

    def run_pass(self, ctx: Context) -> PassResult:
        probe = ctx.probe
        probe.reset_counts()
        out = ctx.fresh("out")
        registry = MetricsRegistry()
        result = PassResult()
        sweeps: List[Tuple[Any, List[FigureReport]]] = []
        with ctx.timed(result):
            channels = _Channels(ctx)
            try:
                for i in range(WARM_SWEEPS):
                    with probe.executor(cache=self.cold_cache(ctx),
                                        metrics=registry,
                                        telemetry=channels.channel,
                                        point_log=True) as ex:
                        reports = []
                        for fig_id in self.figures:
                            start, first = time.perf_counter(), \
                                ex.stats.lookups
                            reports.append(_figure(probe, fig_id, ex))
                            result.point_times.append(
                                (start, time.perf_counter(),
                                 ex.stats.lookups - first))
                        _export(probe, reports, out / f"s{i}")
                        channels.record(ex, reports)
                    # Keep only what the checks read: a sweep's executor
                    # and its memo would otherwise grow the heap that
                    # later sweeps' garbage collections walk.
                    sweeps.append((ex.stats, reports))
                    del ex
            finally:
                channels.close()
        for i, (_stats, reports) in enumerate(sweeps):
            _collect_figures(result, reports, out / f"s{i}", f"@{i}")
        _executor_counts(result.counts, [st for st, _r in sweeps], registry)
        result.counts["obs.ledger_lines"] = channels.ledger_lines()
        result.extra["obs.stream_lines"] = channels.stream_lines()
        _finish_counts(result, probe)
        _rmtree(out, channels.ledger_dir, channels.stream_dir)
        return result


class _Channels:
    """Run ledger, NDJSON progress stream and telemetry hub on scratch
    targets, wired the way ``comb figures`` wires them."""

    def __init__(self, ctx: Context) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.ledger_dir = ctx.fresh("ledger")
        self.stream_dir = ctx.fresh("stream")
        self.writer = StreamWriter(str(self.stream_dir / "stream.ndjson"))
        self.channel = TelemetryChannel()
        self.hub = TelemetryHub(self.channel, [self.writer])
        self.hub.start(self.run_id, "figures", 1)
        self.ledger = RunLedger(self.ledger_dir, self.run_id, "figures")
        self._t0 = time.perf_counter()

    def record(self, executor: Any, reports: Sequence[FigureReport]) -> None:
        for rec in executor.point_records:
            self.ledger.record_point(**rec)
        self.ledger.record_run(
            wall_s=round(time.perf_counter() - self._t0, 4),
            timestamp=datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            compiled=compiled.active(),
            reps=executor.reps,
            cache=executor.stats.to_dict(),
            figures={r.figure.fig_id: round(r.wall_s, 4) for r in reports},
            claims_ok=all(r.ok for r in reports),
        )

    def close(self) -> None:
        self.hub.close()
        self.writer.close()
        self.ledger.close()

    def ledger_lines(self) -> int:
        return sum(len(f.read_text().splitlines())
                   for f in self.ledger_dir.rglob("*.jsonl"))

    def stream_lines(self) -> int:
        return len((self.stream_dir / "stream.ndjson").read_text()
                   .splitlines())


#: The multi-rank points: halo3d at 32 ranks on the default k=8 fat-tree.
HALO_RANKS = 32


class PatternsScale(Workload):
    """Rank-scaling figures plus 32-rank fat-tree halo3d on GM and
    Portals: routed multi-rank traffic, no burst batching."""

    name = "patterns-scale"
    figures = ("scale_halo", "scale_allreduce")
    tail_pct = 85

    def run_pass(self, ctx: Context) -> PassResult:
        probe = ctx.probe
        probe.reset_counts()
        out = ctx.fresh("out")
        registry = MetricsRegistry()
        result = PassResult()
        tasks = [PointTask("pattern", get_system(name), PatternConfig(
            pattern="halo3d", ranks=HALO_RANKS, topology="fattree"))
            for name in ("GM", "Portals")]
        with ctx.timed(result):
            with probe.executor(cache=None, metrics=registry,
                                point_log=True) as ex:
                reports = [_figure(probe, f, ex) for f in self.figures]
                _export(probe, reports, out)
                with probe.span("halo3d"):
                    halos = ex.run(tasks)
        _collect_figures(result, reports, out)
        for task, point in zip(tasks, halos):
            name = f"halo3d.{task.system.name}.{HALO_RANKS}"
            result.outputs[name] = _point_bytes(point)
            result.points[name] = 1
        result.point_times = list(probe.sim_times)
        _executor_counts(result.counts, [ex.stats], registry)
        _finish_counts(result, probe)
        _rmtree(out)
        return result


#: The observed halo3d point: Portals, 16 ranks, fat-tree.
OBSERVED_RANKS = 16


class Observed(Workload):
    """``comb trace <target> --attribution`` plus the sanitizer, on fig11
    and on a 16-rank fat-tree Portals halo3d."""

    name = "observed"
    figures = ("fig11",)
    tail_pct = 65

    def open(self, ctx: Context, ready: Callable[[], None]) -> None:
        import repro.verify  # noqa: F401  (loaded by the first checked point)

        with ctx.probe.executor(cache=None, check=True,
                                metrics=Observer().metrics):
            code_salt()
            ready()

    def run_pass(self, ctx: Context) -> PassResult:
        probe = ctx.probe
        probe.reset_counts()
        out = ctx.fresh("out")
        result = PassResult()
        task = PointTask("pattern", get_system("Portals"), PatternConfig(
            pattern="halo3d", ranks=OBSERVED_RANKS, topology="fattree"))
        targets = ("fig11", f"halo3d.Portals.{OBSERVED_RANKS}")
        runs: List[Tuple[str, Any, Any, Observer]] = []
        with ctx.timed(result):
            for target in targets:
                observer = Observer()
                with probe.executor(cache=None, check=True,
                                    metrics=observer.metrics) as ex:
                    with use_observer(observer):
                        if target == "fig11":
                            output: Any = _figure(probe, "fig11", ex)
                        else:
                            with probe.span("halo3d"):
                                output = ex.run([task])[0]
                self._export(probe, observer, ex, target, out)
                runs.append((target, ex, output, observer))
        for target, ex, output, observer in runs:
            if target == "fig11":
                result.outputs["fig11.json"] = json.dumps(
                    output.figure.to_dict(), indent=2).encode()
                result.points["fig11.json"] = _fig_points(output.figure)
                result.claims += [c.ok for c in output.claims]
            else:
                result.outputs[target] = _point_bytes(output)
                result.points[target] = 1
            name = f"{target}.attribution.json"
            result.outputs[name] = _renumbered_msg_ids(
                json.loads((out / name).read_text()))
            result.points[name] = 0
            _executor_counts(result.counts, [ex.stats], observer.metrics)
            counts = result.counts
            counts["obs.events_recorded"] = (
                counts.get("obs.events_recorded", 0)
                + sum(observer.tracer.counts().values()))
            counts["obs.events_dropped"] = (
                counts.get("obs.events_dropped", 0)
                + sum(observer.tracer.dropped().values()))
            counts["verify.violations"] = (
                counts.get("verify.violations", 0) + len(ex.violations))
        result.point_times = list(probe.sim_times)
        result.extra["obs.export_bytes"] = _dir_bytes(out)
        _finish_counts(result, probe)
        _rmtree(out)
        return result

    @staticmethod
    def _export(probe: Probe, observer: Observer, executor: Any,
                target: str, out: Path) -> None:
        """The files ``comb trace <target> --attribution`` writes."""
        events = observer.events()
        dropped = observer.tracer.dropped()
        with probe.span("obs.export"):
            write_chrome_trace(events, out / f"{target}.trace.json",
                               label=f"comb {target}", dropped=dropped)
            write_csv_timeline(events, out / f"{target}.timeline.csv",
                               dropped=dropped)
            doc = observer.to_dict()
            doc["executor"] = executor.stats.to_dict()
            write_metrics(doc.pop("metrics"), out / f"{target}.metrics.json",
                          extra=doc)
        with probe.span("obs.attribution"):
            points = attribute_events(events)
        with probe.span("obs.stitch"):
            forest = stitch(events)
        with probe.span("obs.export"):
            doc = {"schema_version": TRACE_SCHEMA_VERSION,
                   "points": [pt.to_dict() for pt in points],
                   "spans": forest.to_dicts()}
            (out / f"{target}.attribution.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")


WORKLOADS = {w.name: w for w in (PaperCold, PatternsScale, WarmReplay,
                                 Observed)}
