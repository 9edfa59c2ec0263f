"""One point-lifecycle seam between the sweep executor and its observers.

:class:`~repro.core.executor.SweepExecutor` hands every ``(kind,
fields)`` event of its points' lifecycle, named after the live stream's
kinds, to a list of subscribers (none when detached).  The executor
publishes every event itself, in the parent process, for serial and
pooled points alike:

* ``figure_start`` / ``figure_end`` (``figure``, ``wall_s``);
* ``point_cached`` (``key``, ``task``, ``outcome``: ``hit``, or a
  ``duplicate`` of a point pending in the same batch);
* ``batch`` (``n_tasks``, ``n_hits``, ``n_pending``, lookup walls
  ``hit_s`` / ``miss_s``, ``evicted`` records, worker ``slots``);
* ``point_start`` (``key``, ``task``, ``marker``, ``pooled``): a point
  starts simulating, inline (``pooled`` false) or handed to the pool;
  published in task order;
* ``point_end`` (``key``, ``task``, ``wall_s``, ``events``): a point came
  back from simulation; pooled points end in completion order;
* ``replicated`` (``reps``, ``reason``, ``disagreements``): executor-only.

Subscribers only read events: observed points are bit-identical.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from . import live
from .metrics import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry

#: Replicates-per-point histogram buckets (adaptive designs are small).
_REPLICATE_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 16.0, 32.0, 64.0)


class Subscriber:
    """Receives lifecycle events; ignores the kinds it does not use."""

    def __call__(self, kind: str, fields: Dict[str, Any]) -> None:
        raise NotImplementedError


def publish(subscribers: List[Subscriber], kind: str, **fields: Any) -> None:
    """Hand one event to every subscriber, in list order."""
    for subscriber in subscribers:
        subscriber(kind, fields)


class MetricsProfile(Subscriber):
    """Wall-clock stage profile into a registry: lookup latency, point
    walls and engine events, fan-out utilization, replication."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: The simulating batch: points left, worker slots, start, busy.
        self._left, self._slots, self._t0, self._busy_s = 0, 1, 0.0, 0.0

    def __call__(self, kind: str, fields: Dict[str, Any]) -> None:
        reg = self.registry
        if kind == "point_end":
            reg.histogram("executor.task_wall_s", DEFAULT_LATENCY_BUCKETS_S
                          ).observe(fields["wall_s"])
            if fields["events"]:
                reg.counter("sim.events_processed").inc(fields["events"])
            self._left -= 1
            self._busy_s += fields["wall_s"]
            if self._left == 0:
                batch_wall_s = time.perf_counter() - self._t0
                reg.counter("executor.simulate_wall_s").inc(batch_wall_s)
                # Share of the batch's worker-slot capacity spent
                # simulating (1.0 = perfectly packed).
                if batch_wall_s > 0:
                    reg.gauge("executor.fanout_utilization").set(
                        self._busy_s / (batch_wall_s * self._slots))
        elif kind == "batch":
            for counter, hist_name, walls in (
                    ("hits", "lookup_hit_s", fields["hit_s"]),
                    ("misses", "lookup_miss_s", fields["miss_s"])):
                if walls:
                    reg.counter(f"executor.cache.{counter}").inc(len(walls))
                    hist = reg.histogram(f"executor.{hist_name}",
                                         DEFAULT_LATENCY_BUCKETS_S)
                    for wall_s in walls:
                        hist.observe(wall_s)
            if fields["evicted"]:
                reg.counter("executor.cache.evictions").inc(fields["evicted"])
            if fields["n_pending"]:
                reg.counter("executor.batches").inc()
                reg.counter("executor.points_simulated").inc(
                    fields["n_pending"])
                self._left, self._slots = fields["n_pending"], fields["slots"]
                self._t0, self._busy_s = time.perf_counter(), 0.0
        elif kind == "replicated":
            reps = fields["reps"]
            reg.counter("executor.replicates").inc(reps)
            reg.histogram("executor.replicates_per_point",
                          _REPLICATE_BUCKETS).observe(float(reps))
            reg.counter(f"executor.replication.stop.{fields['reason']}").inc()
            if fields["disagreements"]:
                reg.counter("executor.replication.disagreements").inc(
                    fields["disagreements"])


class PointRecords(Subscriber):
    """The run ledger's feed: one outcome record per point, stamped with
    the figure in flight (the arguments of
    :meth:`~repro.obs.ledger.RunLedger.record_point`).  A simulated
    point's record is placed when it starts, so records keep task order
    when pooled points finish out of order; its wall comes at its end."""

    def __init__(self, records: List[Dict[str, Any]]) -> None:
        self.records = records
        self.figure: Optional[str] = None
        #: Key -> record of each point started and not yet ended.
        self._open: Dict[str, Dict[str, Any]] = {}

    def __call__(self, kind: str, fields: Dict[str, Any]) -> None:
        if kind == "point_cached" or kind == "point_start":
            task = fields["task"]
            record = {
                "key": fields["key"], "kind": task.kind,
                "system": task.system.name,
                "outcome": fields.get("outcome", "miss"),
                "wall_s": None, "seed": task.system.seed,
                "figure": self.figure,
            }
            self.records.append(record)
            if kind == "point_start":
                self._open[fields["key"]] = record
        elif kind == "point_end":
            self._open.pop(fields["key"])["wall_s"] = fields["wall_s"]
        elif kind == "figure_start":
            self.figure = fields["figure"]
        elif kind == "figure_end":
            self.figure = None


class TelemetryFeed(Subscriber):
    """Lifecycle events into a live telemetry channel."""

    def __init__(self, channel: live.TelemetryChannel) -> None:
        self.channel = channel

    def __call__(self, kind: str, fields: Dict[str, Any]) -> None:
        emit = self.channel.emit
        if kind == "point_start":
            _kind, system, msg_bytes, interval_iters, _windows = \
                fields["marker"]
            emit(kind, key=fields["key"], method=fields["task"].kind,
                 system=system, msg_bytes=msg_bytes,
                 interval_iters=interval_iters)
        elif kind == "point_end":
            emit(kind, key=fields["key"], method=fields["task"].kind,
                 wall_s=fields["wall_s"])
        elif kind == "point_cached":
            task = fields["task"]
            emit(kind, key=fields["key"], method=task.kind,
                 system=task.system.name, outcome=fields["outcome"])
        elif kind == "batch":
            emit(kind, n_tasks=fields["n_tasks"], n_hits=fields["n_hits"],
                 n_pending=fields["n_pending"])
        elif kind == "figure_start" or kind == "figure_end":
            emit(kind, **fields)


class TraceMarkers(Subscriber):
    """Point markers on a tracer: the Chrome trace's executor row and
    the boundaries :mod:`repro.obs.attribution` cuts the event stream
    at.  Only points simulated in this process are bracketed."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._open = False

    def __call__(self, kind: str, fields: Dict[str, Any]) -> None:
        inline = kind == "point_start" and not fields["pooled"]
        if inline:
            self.tracer.record(0.0, "executor", "point_start",
                               fields["marker"])
        elif kind == "point_cached" or (kind == "point_end" and self._open):
            self.tracer.record(0.0, "executor", kind, (fields["task"].kind,))
        self._open = inline
