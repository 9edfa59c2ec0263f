"""Live sweep telemetry: a bounded in-process channel to the hub.

The rest of :mod:`repro.obs` is post-hoc — traces, metrics, and
attribution exist only after a run finishes.  This module is the
*during*: :class:`TelemetryChannel` carries the point lifecycle of a
:class:`~repro.core.executor.SweepExecutor` (``point_cached`` /
``point_start`` / ``point_end``, batches and figure brackets) from the
executor to a :class:`~repro.obs.live_consumers.TelemetryHub` thread in
the same process.  The parent emits every event: a pooled point is
announced when it is handed to the pool and finished when its future
completes, so pool workers never emit anything.

The channel follows the ring buffers' honesty contract: it never stalls
the sweep for telemetry.  An emission into a full queue waits at most
:data:`LIFECYCLE_PUT_TIMEOUT_S`, then is *dropped and counted* per
event kind, and the hub's final ``run_end`` states those counts.

The hub drains in batches, not per event: it sleeps on the channel's
:attr:`~TelemetryChannel.wake` signal for at most
:data:`DRAIN_PERIOD_S`, then takes everything queued.  The producer
sets the signal only once half the queue is backlogged (and the hub's
``close`` sets it), so a burst of cache hits costs no thread hand-off
per event; a line reaches its consumers at most one period late.

Telemetry is observation-only and strictly detachable: the executor
reaches the channel through one lifecycle subscriber
(:class:`~repro.obs.lifecycle.TelemetryFeed`), and simulated results are
bit-identical with or without it (the stream carries wall-clock metadata
*about* points, never anything that feeds back into them).

The NDJSON stream schema (one JSON object per line, every line stamped
``"v": TELEMETRY_SCHEMA_VERSION``) is declared in
:data:`STREAM_EVENT_FIELDS` and checked by :func:`validate_stream_event`
— the same validator CI runs over every emitted line.
"""

from __future__ import annotations

import json
import os
import queue as queue_mod
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: Version stamp carried by every stream event.  Compatibility rule
#: (same as the trace exporters): within one version changes are
#: strictly additive — new kinds, new optional fields; renaming or
#: removing a kind or a declared field bumps the version.  Consumers
#: must ignore kinds and fields they do not know.
TELEMETRY_SCHEMA_VERSION = 2

#: Default bound on the in-flight event queue.  Small enough that a
#: runaway emitter cannot balloon parent memory; drops are counted.
DEFAULT_QUEUE_CAPACITY = 1024

#: Longest an emission may block on a saturated queue before being
#: dropped.
LIFECYCLE_PUT_TIMEOUT_S = 0.1

#: Longest the hub sleeps between batches when nothing wakes it: the
#: most a queued event waits before its consumers see it.
DRAIN_PERIOD_S = 0.2

#: Fields every stream event carries.
COMMON_FIELDS: Tuple[str, ...] = ("v", "kind", "t_wall_s", "pid")

#: kind → required event-specific fields.  ``dropped`` is the run's
#: per-kind count of events lost to a full queue (the honesty contract);
#: ``key`` is the point's content hash
#: (:func:`repro.core.executor.task_key`), the same identity the point
#: cache and the run ledger use.
STREAM_EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "run_start": ("run_id", "cmd", "jobs"),
    "figure_start": ("figure",),
    "figure_end": ("figure", "wall_s"),
    "batch": ("n_tasks", "n_hits", "n_pending"),
    "point_cached": ("key", "method", "system", "outcome"),
    "point_start": ("key", "method", "system", "msg_bytes",
                    "interval_iters"),
    "point_end": ("key", "method", "wall_s"),
    "stall": ("key", "elapsed_s", "predicted_s", "factor"),
    "progress": ("done", "cached", "running", "eta_s"),
    "run_end": ("wall_s", "done", "cached", "stalls", "dropped"),
}

#: Fields that must be numbers when present (beyond the common ones).
_NUMERIC_FIELDS = frozenset([
    "t_wall_s", "wall_s", "jobs", "n_tasks", "n_hits", "n_pending",
    "msg_bytes", "interval_iters", "elapsed_s", "predicted_s", "factor",
    "done", "cached", "running", "stalls", "pid",
])


def validate_stream_event(doc: Any) -> List[str]:
    """Errors that make ``doc`` an invalid stream event (empty = valid).

    The published schema contract: unknown *extra* fields are legal
    (additive evolution); missing declared fields, an unknown kind, or a
    wrong schema version are not.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"event is not a JSON object: {type(doc).__name__}"]
    if doc.get("v") != TELEMETRY_SCHEMA_VERSION:
        errors.append(
            f"schema version {doc.get('v')!r} != {TELEMETRY_SCHEMA_VERSION}"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in STREAM_EVENT_FIELDS:
        errors.append(f"unknown event kind {kind!r}")
        return errors
    for field in COMMON_FIELDS + STREAM_EVENT_FIELDS[kind]:
        if field not in doc:
            errors.append(f"{kind}: missing field {field!r}")
    for field, value in doc.items():
        if field in _NUMERIC_FIELDS and value is not None \
                and not isinstance(value, (int, float)):
            errors.append(f"{kind}: field {field!r} not a number: {value!r}")
    dropped = doc.get("dropped")
    if dropped is not None and not isinstance(dropped, dict):
        errors.append(f"{kind}: 'dropped' must be an object")
    return errors


def validate_stream_line(line: str) -> List[str]:
    """Errors for one NDJSON line (parse failure is an error)."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"line is not JSON: {exc}"]
    return validate_stream_event(doc)


def make_event(kind: str, **fields: Any) -> Dict[str, Any]:
    """A schema-stamped stream event."""
    doc: Dict[str, Any] = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "kind": kind,
        "t_wall_s": time.time(),
        "pid": os.getpid(),
    }
    doc.update(fields)
    return doc


class TelemetryChannel:
    """Bounded event queue from the executor to the hub, one per
    observed run.

    :meth:`emit` never raises on saturation — telemetry must not stall
    the sweep; an event that finds the queue full for
    :data:`LIFECYCLE_PUT_TIMEOUT_S` is counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.queue: "queue_mod.Queue[Dict[str, Any]]" = queue_mod.Queue(
            capacity)
        self.capacity = capacity
        #: Events dropped on a full queue, per event kind.
        self.dropped: Dict[str, int] = {}
        #: Set when the queue is half full (or the hub closes): the hub
        #: drains now instead of at the end of its period.
        self.wake = threading.Event()
        self._wake_backlog = max(capacity // 2, 1)

    def emit(self, kind: str, **fields: Any) -> bool:
        """Enqueue one event; ``True`` when enqueued, ``False`` (and
        counted) when dropped."""
        try:
            self.queue.put(make_event(kind, **fields),
                           timeout=LIFECYCLE_PUT_TIMEOUT_S)
        except queue_mod.Full:
            self.dropped[kind] = self.dropped.get(kind, 0) + 1
            return False
        if self.queue.qsize() >= self._wake_backlog \
                and not self.wake.is_set():
            self.wake.set()
        return True

    def drain(self, timeout_s: float = 0.2) -> Optional[Dict[str, Any]]:
        """Next pending event, or ``None`` after ``timeout_s``."""
        try:
            return self.queue.get(timeout=timeout_s)
        except queue_mod.Empty:
            return None

    def drain_batch(self) -> List[Dict[str, Any]]:
        """Every event queued now, in emission order (never blocks)."""
        batch: List[Dict[str, Any]] = []
        get = self.queue.get_nowait
        try:
            while True:
                batch.append(get())
        except queue_mod.Empty:
            return batch


__all__ = [
    "DEFAULT_QUEUE_CAPACITY",
    "DRAIN_PERIOD_S",
    "LIFECYCLE_PUT_TIMEOUT_S",
    "STREAM_EVENT_FIELDS",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryChannel",
    "make_event",
    "validate_stream_event",
    "validate_stream_line",
]
