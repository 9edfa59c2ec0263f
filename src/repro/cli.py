"""``comb`` command-line interface.

Subcommands::

    comb polling --system GM --size 100 --interval 10000
    comb pww     --system Portals --size 100 --interval 100000
    comb pattern halo --ranks 8 --topology fattree
    comb offload [--system GM]
    comb netperf --system GM --mode busywait
    comb figures [--ids fig08 fig11] [--per-decade 2] [--out results/]
    comb report  [--per-decade 2]
    comb compare [--systems GM Portals] [--size 100]
    comb history [--figure fig08] [--last 5] [--format json]
    comb top     results/stream.ndjson [--once]
    comb trace   polling --system Portals --interval 1000

``comb pattern`` runs an application communication pattern (halo2d,
halo3d, sweep, allreduce — ``halo`` is an alias for halo2d) across
``--ranks`` ranks on a ``--topology`` (crossbar or fattree) and prints
per-rank plus aggregate (min/median/max) CPU availability.

All sizes are in the paper's KB (KiB); intervals are work-loop iterations.
Every simulated point, from a point command, a figure, or a trace, runs
as a :class:`~repro.core.executor.PointTask` through
:class:`~repro.core.executor.SweepExecutor`.  The point commands use a
serial executor with no cache and no ledger.

The sweep-heavy subcommands (``figures``, ``report``) accept ``--jobs N``
to fan points out over a process pool and use an on-disk point cache under
``.comb_cache/`` by default (``--no-cache`` disables it, ``--cache-dir``
relocates it).  Results are bit-identical for every combination of flags.

``--check`` (on ``polling``, ``pww``, ``pattern``, ``figures``,
``report``) runs the simulation sanitizer — runtime invariant checks
over every simulated point (see :mod:`repro.verify`).  Output values are
unchanged; the exit status is 1 if any invariant was violated.  Cached
points are returned as-is (they were checked, or checkable, when first
simulated).

``comb trace <figure|polling|pww|pattern>`` is the one observed run: it
runs one figure or one point with the observability layer
(:mod:`repro.obs`) attached, forced serial and uncached so every event is
captured, and exports a Chrome ``trace_event`` JSON (loads in
``about:tracing`` / Perfetto), a CSV timeline, and a
``<target>.metrics.json`` sidecar: simulation metrics (phase breakdowns,
poll hit/miss, queue depths) plus the executor's wall-clock stage
profile and hit/miss stats.
``polling`` and ``pww`` targets also print each node's kernel time by
handler label and its user/kernel/idle shares.  With ``--attribution``
the event stream is additionally stitched into causal spans
(:mod:`repro.obs.spans`) and each sweep point's wait time / availability
loss, warmup excluded, is decomposed into named causes
(:mod:`repro.obs.attribution`), printed as a table and exported as
``<target>.attribution.json``.

``figures`` and ``report`` exit 1 when a paper claim fails.

``comb compare`` prints the paper's system comparison table (GM,
Portals, TCP and the offload NIC).  It judges no timings: an A/B speed
claim comes from replicated ``perfbench/`` records compared with
``perfbench/compare.py``.

Live telemetry (``figures``, ``report``): ``--progress`` renders a live
status line with point counts, stall flags and a cache-aware ETA;
``--progress-stream PATH|FD`` additionally writes every telemetry event
as schema-versioned NDJSON, which ``comb top <path>`` can attach to from
another terminal mid-run.  Detached (neither flag), the executor takes
the exact pre-telemetry code path — results are bit-identical either
way (telemetry is observation-only wall-clock metadata).

Every executor-driven run also appends point outcomes and a closing
summary to the persistent run ledger (``results/ledger/ledger.jsonl``;
``--no-ledger`` opts out, ``--ledger-dir`` relocates it).  ``comb
history`` filters and aggregates that ledger (outcome counts, mean miss
wall, per-figure wall trend, and a note when pure-core and C-kernel
runs mix).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from .analysis import (FIGURE_SPECS, export_figures, format_report, render,
                       run_all, run_figure)
from .baselines import NetperfConfig, NetperfResult
from .config import PRESETS, get_system, preset_names
from .core import (
    CombSuite,
    PointCache,
    PollingConfig,
    PollingPoint,
    PwwConfig,
    PwwPoint,
    SweepExecutor,
)
from .core.executor import _METHODS, DEFAULT_CACHE_DIR, PointTask
from .hardware.topology import make_topology
from .patterns import PATTERN_KINDS, PatternConfig
from .patterns.config import validate_config

#: ``comb pattern`` / ``comb trace`` accept ``halo`` for halo2d.
_PATTERN_ALIASES = {"halo": "halo2d", **{k: k for k in PATTERN_KINDS}}

#: Point kind -> (config type, {option dest: config field}).  A point
#: command and a ``comb trace`` point target build their task from this
#: one table; an option the command lacks or leaves unset keeps the
#: config's own default.
_POINT_OPTIONS = {
    "polling": (PollingConfig, {"interval": "poll_interval_iters",
                                "queue_depth": "queue_depth"}),
    "pww": (PwwConfig, {"interval": "work_interval_iters",
                        "tests_in_work": "tests_in_work"}),
    "pattern": (PatternConfig, {
        "ranks": "ranks", "interval": "work_interval_iters",
        "iterations": "iterations", "warmup": "warmup_iterations",
        "topology": "topology", "arity": "arity",
        "ghost_width": "ghost_width", "algorithm": "algorithm",
        "grid": "grid",
    }),
    "netperf": (NetperfConfig, {"mode": "wait_mode"}),
}


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _rank_count(text: str) -> int:
    return _int_at_least(text, 2)  # a pattern needs two ranks


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


def _add_size(parser: argparse.ArgumentParser,
              help: str = "message size (KB)") -> None:
    parser.add_argument("--size", type=_non_negative_float, default=100,
                        help=help)


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for sweep points (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk point cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"point-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--reps", type=_positive_int, default=1, metavar="N",
        help="replicates per sweep point on named RNG substreams "
        "(default: 1, the bit-identical single-shot path); aggregated "
        "points carry median/CI replication summaries and figures "
        "render CI bands",
    )
    parser.add_argument(
        "--ci-width", type=_non_negative_float, default=None, metavar="W",
        help="adaptive stopping: stop replicating a point once its "
        "availability bootstrap CI is at most this wide (cap: --reps); "
        "default: fixed --reps design",
    )
    _add_progress_flags(parser)
    _add_ledger_flags(parser)
    _add_check_flag(parser)


def _add_progress_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress", action="store_true",
        help="live TTY progress line (point counts, running points, ETA, "
        "stall flags) on stderr while the sweep runs",
    )
    parser.add_argument(
        "--progress-stream", default=None, metavar="PATH|FD",
        help="stream live telemetry as NDJSON (one schema-versioned "
        "JSON object per line) to a file path or a numeric fd; "
        "`comb top PATH` attaches to a running sweep through it",
    )


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    from .obs.ledger import DEFAULT_LEDGER_DIR

    parser.add_argument(
        "--no-ledger", action="store_true",
        help="skip appending this run to the persistent run ledger",
    )
    parser.add_argument(
        "--ledger-dir", default=str(DEFAULT_LEDGER_DIR), metavar="DIR",
        help=f"run-ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )


def _add_check_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", action="store_true",
        help="run the simulation sanitizer (runtime invariant checks); "
        "output is unchanged, exit status is 1 on any violation",
    )


def _make_executor(args: argparse.Namespace, telemetry=None,
                   point_log: bool = False) -> SweepExecutor:
    cache = None if args.no_cache else PointCache(args.cache_dir)
    return SweepExecutor(jobs=args.jobs, cache=cache, check=args.check,
                         reps=args.reps, ci_width=args.ci_width,
                         telemetry=telemetry, point_log=point_log)


class _LiveSweep:
    """Per-invocation live-telemetry + run-ledger plumbing.

    Owns the telemetry channel, the hub with its consumers (NDJSON
    stream writer for ``--progress-stream``, TTY renderer for
    ``--progress``), and the run ledger (on by default; ``--no-ledger``
    opts out).  Unwritable targets surface as a one-line message in
    :attr:`error` — the PR 5 convention — never a traceback.
    """

    def __init__(self, args: argparse.Namespace, cmd: str) -> None:
        import time as _time
        import uuid
        from pathlib import Path

        self.run_id = uuid.uuid4().hex[:12]
        self.cmd = cmd
        self.jobs = getattr(args, "jobs", 1)
        self.channel = None
        self.hub = None
        self.stream_writer = None
        self.ledger = None
        self.error: Optional[str] = None
        self._t0_wall = _time.perf_counter()
        stream_target = getattr(args, "progress_stream", None)
        want_live = bool(getattr(args, "progress", False) or stream_target)
        if stream_target:
            from .obs.live_consumers import StreamWriter

            try:
                self.stream_writer = StreamWriter(stream_target)
            except OSError as exc:
                self.error = (f"error: cannot open progress stream "
                              f"{stream_target}: {exc}")
                return
        if not getattr(args, "no_ledger", False) \
                and hasattr(args, "ledger_dir"):
            from .obs.ledger import RunLedger

            ledger_dir = Path(args.ledger_dir)
            try:
                self.ledger = RunLedger(ledger_dir, self.run_id, cmd)
            except OSError as exc:
                self.error = (f"error: cannot open run ledger under "
                              f"{ledger_dir}: {exc}")
                return
        if want_live:
            from .obs.live import TelemetryChannel
            from .obs.live_consumers import ProgressRenderer, TelemetryHub

            self.channel = TelemetryChannel()
            consumers = []
            if self.stream_writer is not None:
                consumers.append(self.stream_writer)
            if getattr(args, "progress", False):
                consumers.append(ProgressRenderer())
            self.hub = TelemetryHub(self.channel, consumers)
            self.hub.start(self.run_id, cmd, self.jobs)

    @property
    def point_log(self) -> bool:
        return self.ledger is not None

    def finish(self, executor: SweepExecutor, reports=None,
               claims_ok: Optional[bool] = None) -> None:
        """Close the hub/stream and append this run to the ledger."""
        import time as _time
        from datetime import datetime, timezone

        if self.hub is not None:
            self.hub.close()
        if self.stream_writer is not None:
            self.stream_writer.close()
        if self.ledger is not None:
            from . import compiled

            self.ledger.record_points(executor.point_records)
            figures = None
            if reports is not None:
                figures = {r.figure.fig_id: round(r.wall_s, 4)
                           for r in reports}
                if claims_ok is None:
                    claims_ok = all(r.ok for r in reports)
            self.ledger.record_run(
                wall_s=round(_time.perf_counter() - self._t0_wall, 4),
                timestamp=datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                compiled=compiled.active(),
                reps=executor.reps,
                cache=executor.stats.to_dict(),
                figures=figures,
                claims_ok=claims_ok,
            )
            self.ledger.close()


def _report_violations(violations) -> int:
    """Print a sanitizer verdict; return the process exit code."""
    if not violations:
        print("sanitizer: all invariants held (0 violations)")
        return 0
    print(f"sanitizer: {len(violations)} violation(s)", file=sys.stderr)
    for v in violations:
        print(f"  [{v.monitor}/{v.kind}] t={v.time:.9f} {v.detail}",
              file=sys.stderr)
    return 1


def _report_disagreements(disagreements) -> int:
    """Print replica-disagreement diagnostics; return the exit code.

    Silent when empty: single-shot runs and clean replicated runs never
    see this output.
    """
    if not disagreements:
        return 0
    print(f"replication: {len(disagreements)} replica disagreement(s) — "
          "bit-level divergence across RNG substreams on deterministic "
          "inputs (determinism bug)", file=sys.stderr)
    for d in disagreements:
        print(f"  {d.detail}", file=sys.stderr)
    return 1


def _add_system(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", default="GM", choices=preset_names(),
        help="system preset to simulate",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comb",
        description="COMB MPI-overlap benchmark suite on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polling", help="one polling-method measurement")
    _add_system(p)
    _add_size(p)
    p.add_argument("--interval", type=_positive_int, default=10_000,
                   help="poll interval (loop iterations)")
    p.add_argument("--queue-depth", type=_positive_int, default=4)
    _add_check_flag(p)

    p = sub.add_parser("pww", help="one post-work-wait measurement")
    _add_system(p)
    _add_size(p)
    p.add_argument("--interval", type=_non_negative_int, default=100_000,
                   help="work interval (loop iterations)")
    p.add_argument("--tests-in-work", type=_non_negative_int, default=0,
                   help="MPI_Test calls inserted early in the work phase")
    _add_check_flag(p)

    p = sub.add_parser(
        "pattern",
        help="application communication pattern across N ranks "
        "(halo/sweep/allreduce on a crossbar or fat-tree)",
    )
    p.add_argument("pattern", choices=sorted(_PATTERN_ALIASES),
                   help="pattern kind (halo = halo2d)")
    _add_system(p)
    p.add_argument("--ranks", type=_rank_count, default=4,
                   help="rank count (one rank per node; default: 4)")
    _add_size(p, "message size per neighbor/round (KB)")
    p.add_argument("--interval", type=_non_negative_int, default=100_000,
                   help="work interval per iteration (loop iterations)")
    p.add_argument("--iterations", type=_positive_int, default=6,
                   help="measured iterations (default: 6)")
    p.add_argument("--warmup", type=_non_negative_int, default=2,
                   help="untimed warmup iterations (default: 2)")
    p.add_argument("--topology", default="crossbar",
                   choices=("crossbar", "fattree"),
                   help="network fabric (default: crossbar)")
    p.add_argument("--arity", type=_non_negative_int, default=0,
                   help="fat-tree arity k (0: the switch's port count)")
    p.add_argument("--ghost-width", type=_positive_int, default=1,
                   help="halo ghost-layer width (scales the payload)")
    p.add_argument("--algorithm", default="binomial",
                   choices=("binomial", "rd"),
                   help="allreduce algorithm (default: binomial tree)")
    p.add_argument("--grid", type=int, nargs="*", default=None,
                   help="explicit process grid (default: balanced factors)")
    _add_check_flag(p)

    p = sub.add_parser("offload", help="application-offload verdict (§4.1)")
    _add_system(p)
    _add_size(p)

    p = sub.add_parser("netperf", help="netperf-style availability (§5)")
    _add_system(p)
    _add_size(p)
    p.add_argument("--mode", default="busywait",
                   choices=("blocking", "busywait"))

    p = sub.add_parser("figures", help="regenerate paper figures")
    p.add_argument("--ids", nargs="*", default=None, metavar="ID",
                   choices=sorted(FIGURE_SPECS),
                   help="figure ids (default: all of fig04..fig17)")
    p.add_argument("--per-decade", type=_positive_int, default=2)
    p.add_argument("--out", default=None,
                   help="directory for CSV/JSON export")
    p.add_argument("--no-plots", action="store_true")
    _add_executor_flags(p)

    p = sub.add_parser("report", help="full reproduction report with claims")
    p.add_argument("--per-decade", type=_positive_int, default=2)
    _add_executor_flags(p)

    p = sub.add_parser("compare", help="system comparison table")
    p.add_argument("--systems", nargs="*", default=None,
                   choices=preset_names(),
                   help="preset names (default: the paper's presets, plus "
                   "the offload NIC)")
    _add_size(p)

    p = sub.add_parser(
        "history",
        help="query the persistent run ledger (filters, aggregates, "
        "per-figure wall-time trend)",
    )
    p.add_argument("--figure", default=None, metavar="FIGID",
                   help="restrict to runs/points touching this figure")
    p.add_argument("--system", default=None,
                   help="restrict point records to this system preset")
    p.add_argument("--kind", default=None,
                   choices=tuple(_METHODS),
                   help="restrict point records to this method kind")
    p.add_argument("--last", type=_positive_int, default=None, metavar="N",
                   help="only the newest N runs")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    _add_ledger_flags(p)

    p = sub.add_parser(
        "top",
        help="attach to a running sweep via its --progress-stream file "
        "and render its live point state",
    )
    p.add_argument("stream", help="the sweep's --progress-stream file")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit (no refresh loop)")
    p.add_argument("--interval", type=_positive_seconds, default=1.0,
                   metavar="S",
                   help="refresh period in seconds (default: 1.0)")

    p = sub.add_parser(
        "scenario", help="run a declarative JSON experiment spec"
    )
    p.add_argument("spec", help="path to the scenario JSON document")
    p.add_argument("--out", default=None,
                   help="write the full result document as JSON here")
    _add_ledger_flags(p)

    p = sub.add_parser(
        "trace",
        help="run a figure or single point with the observability layer "
        "attached; export Chrome trace JSON + CSV timeline + metrics",
    )
    p.add_argument("target",
                   help="figure id (any FIGURE_SPECS entry: fig04..fig17, "
                   "fig04_ci/fig11_ci, scale_halo/scale_allreduce), "
                   "'polling', 'pww', or a pattern kind "
                   "(halo/halo2d/halo3d/sweep/allreduce)")
    _add_system(p)
    _add_size(p, "message size (KB; point targets)")
    p.add_argument("--interval", type=_non_negative_int, default=None,
                   help="poll/work interval in loop iterations "
                   "(point targets; default: the method's default)")
    p.add_argument("--ranks", type=_rank_count, default=4,
                   help="rank count (pattern targets; default: 4)")
    p.add_argument("--topology", default="crossbar",
                   choices=("crossbar", "fattree"),
                   help="network fabric (pattern targets)")
    p.add_argument("--per-decade", type=_positive_int, default=1,
                   help="grid resolution (figure targets; default: 1)")
    p.add_argument("--out", default="results/trace",
                   help="export directory (default: results/trace)")
    p.add_argument("--ring-capacity", type=_positive_int, default=65536,
                   help="per-kind event ring size (newest events survive)")
    p.add_argument("--kernel", action="store_true",
                   help="also record the per-event kernel stream (very "
                   "noisy; inflates the trace by orders of magnitude)")
    p.add_argument("--attribution", action="store_true",
                   help="stitch events into causal spans and print a "
                   "per-point critical-path decomposition of wait time / "
                   "availability loss; also writes <target>.attribution.json")

    p = sub.add_parser(
        "lint",
        help="static determinism/units/cache-key checks (comb-lint)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files/directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (sarif: SARIF "
                   "2.1.0 for GitHub code scanning)")
    p.add_argument("--select", nargs="*", default=None, metavar="RULE",
                   help="restrict to these rule ids")
    p.add_argument("--exclude", nargs="*", default=None, metavar="DIR",
                   help="directory names to skip during discovery "
                   "(e.g. lint_fixtures when linting tests/)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    return parser


def _run_lint(args: argparse.Namespace) -> int:
    """``comb lint``: run the static analyzer and gate on its findings.

    Exits 2, before linting anything, on a path that does not exist or
    a ``--select`` id that names no registered rule.
    """
    from .lint import (
        format_json,
        format_rule_list,
        format_sarif,
        format_text,
        lint_paths,
        rule_catalog,
    )

    if args.list_rules:
        print(format_rule_list())
        return 0
    select = set(args.select) if args.select else None
    known = list(rule_catalog())
    unknown = sorted((select or set()).difference(known))
    if unknown:
        print(f"comb-lint: unknown rule id(s) {', '.join(unknown)}; "
              f"registered: {', '.join(known)}", file=sys.stderr)
        return 2
    exclude = set(args.exclude) if args.exclude else None
    try:
        report = lint_paths(args.paths, select=select, exclude=exclude)
    except FileNotFoundError as exc:
        print(f"comb-lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(report))
    elif args.format == "sarif":
        print(format_sarif(report))
    else:
        print(format_text(report))
    return report.exit_code


def _run_trace(args: argparse.Namespace) -> int:
    """``comb trace``: one observed run, three export files."""
    from pathlib import Path

    from .obs import (
        Observer,
        use_observer,
        write_chrome_trace,
        write_csv_timeline,
        write_metrics,
    )

    target = args.target
    task = None
    if target in FIGURE_SPECS:
        label = f"comb {target}"
    elif target in ("polling", "pww") or target in _PATTERN_ALIASES:
        # One executor point, as a figure's: its point markers let
        # attribution label the point and drop its warmup windows (see
        # repro.obs.attribution).
        task = _point_task(args, target)
        label = f"comb {target} {task.system.name}"
        if task.kind == "pattern":
            label += f" x{task.cfg.ranks}"
    else:
        print(f"error: unknown trace target {target!r}; expected a figure "
              f"id ({'/'.join(sorted(FIGURE_SPECS))}), 'polling', 'pww', or "
              f"a pattern ({'/'.join(sorted(_PATTERN_ALIASES))})",
              file=sys.stderr)
        return 2

    observer = Observer(ring_capacity=args.ring_capacity, kernel=args.kernel)
    # Forced serial + uncached: cached points never simulate (no events)
    # and pooled points simulate in other processes (events stranded
    # there) — tracing wants the complete timeline.
    with SweepExecutor(jobs=1, cache=None,
                       metrics=observer.metrics) as executor:
        with use_observer(observer):
            if task is None:
                run_figure(target, per_decade=args.per_decade,
                           executor=executor)
            else:
                executor.run_one(task)

    events = observer.events()
    dropped = observer.tracer.dropped()
    out_dir = Path(args.out)
    try:
        paths = [
            write_chrome_trace(events, out_dir / f"{target}.trace.json",
                               label=label, dropped=dropped),
            write_csv_timeline(events, out_dir / f"{target}.timeline.csv",
                               dropped=dropped),
        ]
        doc = observer.to_dict()
        doc["executor"] = executor.stats.to_dict()
        paths.append(write_metrics(doc.pop("metrics"),
                                   out_dir / f"{target}.metrics.json",
                                   extra=doc))
        if args.attribution:
            paths.append(_write_attribution(events, out_dir, target))
    except OSError as exc:
        print(f"error: cannot write trace output under {out_dir}: {exc}",
              file=sys.stderr)
        return 1
    if target in ("polling", "pww"):
        _print_kernel_profile(observer.worlds[-1])
    print(observer.summary())
    for path in paths:
        print(f"wrote {path}")
    print(f"open {paths[0]} in about:tracing or https://ui.perfetto.dev")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """``comb figures`` / ``comb report``: regenerate figures through one
    executor, print them with their claim checks, and exit 1 on a failed
    claim, a sanitizer violation, a replica disagreement, or a dead pool
    worker."""
    from concurrent.futures.process import BrokenProcessPool

    live = _LiveSweep(args, args.command)
    if live.error:
        print(live.error, file=sys.stderr)
        return 1
    try:
        with _make_executor(args, telemetry=live.channel,
                            point_log=live.point_log) as executor:
            reports = run_all(per_decade=args.per_decade,
                              fig_ids=getattr(args, "ids", None),
                              executor=executor)
            if getattr(args, "out", None):
                paths = export_figures([r.figure for r in reports], args.out)
                print(f"wrote {len(paths)} files to {args.out}")
    except BrokenProcessPool as exc:
        live.finish(executor)
        print(f"error: a sweep worker process died: {exc}", file=sys.stderr)
        return 1
    live.finish(executor, reports)
    if args.command == "report":
        print(format_report(reports))
    else:
        for rep in reports:
            if not args.no_plots:
                print(render(rep.figure))
            for c in rep.claims:
                mark = "PASS" if c.ok else "FAIL"
                print(f"  [{mark}] {c.claim} ({c.detail})")
    if _report_disagreements(executor.disagreements):
        return 1
    if args.check and _report_violations(executor.violations):
        return 1
    return 0 if all(r.ok for r in reports) else 1


def _print_kernel_profile(world) -> None:
    """Per-node kernel time by handler label, plus user/kernel/idle
    shares, of a two-node point's world."""
    for node in world.cluster.nodes:
        role = "worker" if node.node_id == 0 else "support"
        print(f"[{role}] {node.cpu.profile_report()}")
        snap = node.cpu.snapshot()
        el = node.cpu.elapsed()
        print(f"  shares: user={snap['user_s'] / el:.3f} "
              f"kernel={snap['kernel_s'] / el:.3f} "
              f"idle={snap['idle_s'] / el:.3f}\n")


def _write_attribution(events, out_dir, target) -> object:
    """Stitch + attribute ``events``; print the table, write the JSON."""
    import json

    from .obs import (
        TRACE_SCHEMA_VERSION,
        attribute_events,
        format_attribution,
        stitch,
    )

    points = attribute_events(events)
    forest = stitch(events)
    print(format_attribution(points))
    path = out_dir / f"{target}.attribution.json"
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "points": [pt.to_dict() for pt in points],
        "spans": forest.to_dicts(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _run_history(args: argparse.Namespace) -> int:
    """``comb history``: deterministic aggregates over the run ledger."""
    import json as _json
    from pathlib import Path

    from .obs.ledger import (
        filter_records,
        format_history,
        history_aggregate,
        ledger_path,
        read_records,
    )

    path = ledger_path(Path(args.ledger_dir))
    records, corrupt = read_records(path)
    if not records and not path.exists():
        print(f"history: no ledger at {path} yet (runs append to it by "
              f"default; --ledger-dir selects another)")
        return 0
    filtered = filter_records(
        records, figure=args.figure, system=args.system,
        kind=args.kind, last=args.last,
    )
    aggregate = history_aggregate(filtered)
    if args.format == "json":
        aggregate["corrupt_lines"] = corrupt
        print(_json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(format_history(aggregate, corrupt=corrupt))
    return 0


def _run_top(args: argparse.Namespace) -> int:
    """``comb top``: attach to a sweep through its stream file."""
    from pathlib import Path

    from .obs.live_consumers import run_top

    stream = Path(args.stream)
    if not stream.exists():
        print(f"error: stream file {stream} does not exist (start the "
              f"sweep with --progress-stream {stream})", file=sys.stderr)
        return 2
    try:
        return run_top(stream, once=args.once, interval_s=args.interval)
    except OSError as exc:
        print(f"error: cannot read stream {stream}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive detach
        print()
        return 0


def _point_task(args: argparse.Namespace, kind: str) -> PointTask:
    """The point a command line names: ``kind`` is ``polling``, ``pww``,
    ``netperf``, or a pattern (alias) from ``comb pattern`` or ``comb
    trace``."""
    pattern = _PATTERN_ALIASES.get(kind)
    cfg_type, options = _POINT_OPTIONS["pattern" if pattern else kind]
    given = vars(args)
    fields = {field: given[dest] for dest, field in options.items()
              if given.get(dest) is not None}
    if "grid" in fields:
        fields["grid"] = tuple(fields["grid"])
    if pattern:
        fields["pattern"] = pattern
    cfg = cfg_type(msg_bytes=int(args.size * 1024), **fields)
    return PointTask("pattern" if pattern else kind,
                     get_system(args.system), cfg)


def _print_point(pt) -> None:
    """The point commands' human-readable result."""
    if isinstance(pt, PollingPoint):
        print(f"{pt.system}: {pt.msg_bytes // 1024} KB, poll interval "
              f"{pt.poll_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f}")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s")
        print(f"  messages     = {pt.msgs}, interrupts = {pt.interrupts}")
    elif isinstance(pt, PwwPoint):
        print(f"{pt.system}: {pt.msg_bytes // 1024} KB, work interval "
              f"{pt.work_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f}")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s")
        print(f"  post  = {pt.post_s * 1e6:8.1f} us/batch")
        print(f"  work  = {pt.work_s * 1e6:8.1f} us/batch "
              f"(dry {pt.work_dry_s * 1e6:.1f} us)")
        print(f"  wait  = {pt.wait_s * 1e6:8.1f} us/batch")
    elif isinstance(pt, NetperfResult):
        print(f"{pt.system} netperf ({pt.wait_mode}): "
              f"availability={pt.availability:.3f}, "
              f"bandwidth={pt.bandwidth_MBps:.2f} MB/s")
    else:
        algo = f" [{pt.algorithm}]" if pt.algorithm else ""
        print(f"{pt.system}: {pt.pattern}{algo}, {pt.ranks} ranks on "
              f"{pt.topology}, {pt.msg_bytes // 1024} KB, work interval "
              f"{pt.work_interval_iters} iters")
        print(f"  availability = {pt.availability:.3f} (median) "
              f"[min {pt.availability_min:.3f}, max {pt.availability_max:.3f}]")
        print(f"  bandwidth    = {pt.bandwidth_MBps:.2f} MB/s aggregate")
        print(f"  messages     = {pt.msgs}, interrupts = {pt.interrupts}")
        print("  per-rank availability:")
        for rank, avail in enumerate(pt.availability_per_rank):
            print(f"    rank {rank:>3d}: {avail:.3f}")


def _check_pattern(parser: argparse.ArgumentParser,
                   cfg: PatternConfig) -> None:
    """Reject, as a usage error, a pattern point that its config check
    or its topology refuses (a grid that does not hold ``--ranks``, an
    arity the topology cannot take)."""
    try:
        validate_config(cfg)
        make_topology(cfg.topology, cfg.arity)
    except ValueError as exc:  # TopologyError included
        parser.error(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "trace" and args.target == "polling" \
            and args.interval == 0:
        parser.error("argument --interval: must be >= 1, got 0")
    if args.command in ("pattern", "trace"):
        kind = args.pattern if args.command == "pattern" else args.target
        if kind in _PATTERN_ALIASES:
            _check_pattern(parser, _point_task(args, kind).cfg)
    try:
        code = _run_command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``comb history | head -1``).  Point
        # stdout at devnull so the interpreter's exit flush cannot raise
        # again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run_command(args: argparse.Namespace) -> int:
    """Run one parsed subcommand; returns its exit code."""
    if args.command in _POINT_OPTIONS:
        kind = args.pattern if args.command == "pattern" else args.command
        check = getattr(args, "check", False)  # netperf has no --check
        with SweepExecutor(jobs=1, cache=None, check=check) as executor:
            _print_point(executor.run_one(_point_task(args, kind)))
        if check:
            return _report_violations(executor.violations)
        return 0

    if args.command == "offload":
        suite = CombSuite(get_system(args.system))
        print(suite.offload_report(msg_bytes=int(args.size * 1024)))
        return 0

    if args.command in ("figures", "report"):
        return _run_sweep(args)

    if args.command == "history":
        return _run_history(args)

    if args.command == "top":
        return _run_top(args)

    if args.command == "compare":
        from .analysis.tables import format_table, system_comparison

        names = args.systems or [*sorted(PRESETS), "OffloadNIC"]
        systems = [get_system(name) for name in names]
        rows = system_comparison(systems, msg_bytes=int(args.size * 1024))
        print(format_table(rows))
        return 0

    if args.command == "scenario":
        import json as _json
        import uuid as _uuid
        from pathlib import Path as _Path

        from .scenario import (ScenarioError, format_scenario_results,
                               run_scenario)

        ledger = None
        if not args.no_ledger:
            from .obs.ledger import RunLedger

            ledger_dir = _Path(args.ledger_dir)
            try:
                ledger = RunLedger(ledger_dir, _uuid.uuid4().hex[:12],
                                   "scenario")
            except OSError as exc:
                print(f"error: cannot open run ledger under {ledger_dir}: "
                      f"{exc}", file=sys.stderr)
                return 1
        try:
            results = run_scenario(args.spec, ledger=ledger)
        except (OSError, _json.JSONDecodeError, ScenarioError) as exc:
            print(f"error: scenario {args.spec}: {exc}", file=sys.stderr)
            return 2
        finally:
            if ledger is not None:
                ledger.close()
        print(format_scenario_results(results))
        if args.out:
            _Path(args.out).write_text(_json.dumps(results, indent=2))
            print(f"\nwrote {args.out}")
        return 0

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "trace":
        return _run_trace(args)

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
