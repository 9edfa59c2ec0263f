"""Live sweep telemetry: a streaming channel from workers to the parent.

The rest of :mod:`repro.obs` is post-hoc — traces, metrics, and
attribution exist only after a run finishes.  This module is the
*during*: :class:`TelemetryChannel` carries point lifecycle events
(``point_start`` / ``point_end`` / ``point_cached``) and periodic
per-worker heartbeats (events processed, sim-clock position) from
:class:`~repro.core.executor.SweepExecutor` spawn-pool workers to the
parent over a bounded multiprocessing-safe queue.

The channel follows the ring buffers' honesty contract: it never blocks
the simulation to deliver telemetry.  Emissions into a full queue are
*dropped and counted*, per event kind per process, and every subsequent
successful lifecycle/heartbeat emission carries the emitting process's
cumulative drop counts — so the parent can always state how much
telemetry was lost, even under saturation.  Lifecycle events
(``point_start`` / ``point_end``) block for at most
:data:`LIFECYCLE_PUT_TIMEOUT_S` before dropping; heartbeats never block.

Telemetry is observation-only and strictly detachable: the executor
reaches the channel through one lifecycle subscriber
(:class:`~repro.obs.lifecycle.TelemetryFeed`), and simulated results are
bit-identical with or without it (the stream carries wall-clock metadata
*about* points, never anything that feeds back into them).

The NDJSON stream schema (one JSON object per line, every line stamped
``"v": TELEMETRY_SCHEMA_VERSION``) is declared in
:data:`STREAM_EVENT_FIELDS` and checked by :func:`validate_stream_event`
— the same validator CI runs over every emitted line, and the contract
the future HTTP serving layer will subscribe to.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Version stamp carried by every stream event.  Compatibility rule
#: (same as the trace exporters): within one version changes are
#: strictly additive — new kinds, new optional fields; renaming or
#: removing a kind or a declared field bumps the version.  Consumers
#: must ignore kinds and fields they do not know.
TELEMETRY_SCHEMA_VERSION = 1

#: Default bound on the in-flight event queue.  Small enough that a
#: runaway emitter cannot balloon parent memory; drops are counted.
DEFAULT_QUEUE_CAPACITY = 1024

#: Default wall-clock period between per-worker heartbeats.
DEFAULT_HEARTBEAT_S = 0.5

#: Longest a lifecycle emission may block on a saturated queue before
#: being dropped (heartbeats never block at all).
LIFECYCLE_PUT_TIMEOUT_S = 0.1

#: Grace added to the heartbeat period when joining its thread.
_JOIN_GRACE_S = 1.0

#: Fields every stream event carries.
COMMON_FIELDS: Tuple[str, ...] = ("v", "kind", "t_wall_s", "pid")

#: kind → required event-specific fields.  ``dropped`` values are
#: cumulative per-kind drop counts of the *emitting process* (the
#: honesty contract); ``key`` is the point's content hash
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
    "point_end": ("key", "method", "wall_s", "dropped"),
    "heartbeat": ("sim_now_s", "events_processed", "points_done",
                  "current_key", "dropped"),
    "stall": ("key", "elapsed_s", "predicted_s", "factor"),
    "progress": ("done", "cached", "running", "eta_s"),
    "run_end": ("wall_s", "done", "cached", "stalls", "dropped"),
}

#: Fields that must be numbers when present (beyond the common ones).
_NUMERIC_FIELDS = frozenset([
    "t_wall_s", "wall_s", "jobs", "n_tasks", "n_hits", "n_pending",
    "msg_bytes", "interval_iters", "sim_now_s", "events_processed",
    "points_done", "elapsed_s", "predicted_s", "factor", "done",
    "cached", "running", "stalls", "pid",
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


def _put(out_queue: Any, dropped: Dict[str, int], kind: str,
         fields: Mapping[str, Any], block: bool) -> bool:
    """Enqueue one event; on a full queue, drop it and count it in
    ``dropped``.  ``block`` waits at most :data:`LIFECYCLE_PUT_TIMEOUT_S`.
    Never raises on saturation — telemetry must not stall the sweep."""
    doc = make_event(kind, **fields)
    try:
        if block:
            out_queue.put(doc, timeout=LIFECYCLE_PUT_TIMEOUT_S)
        else:
            out_queue.put_nowait(doc)
        return True
    except queue_mod.Full:
        dropped[kind] = dropped.get(kind, 0) + 1
        return False
    except (OSError, ValueError):  # pragma: no cover - queue torn down
        return False


class TelemetryChannel:
    """Bounded multiprocessing-safe event channel, parent side.

    One channel per observed run.  The parent (and, via
    :func:`pool_worker_init`, every pool worker) emits into
    :attr:`queue`; a consumer (:class:`~repro.obs.live_consumers.
    TelemetryHub`) drains it.  Spawn-context queue, so it ships to
    spawn-pool workers through the pool's ``initargs``.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        ctx = multiprocessing.get_context("spawn")
        self.queue: Any = ctx.Queue(capacity)
        self.capacity = capacity
        self.heartbeat_s = heartbeat_s
        #: Parent-side drops, per event kind (workers count their own and
        #: report them inside their events — see the module docstring).
        self.dropped: Dict[str, int] = {}

    # ---------------------------------------------------------------- emit
    def emit(self, kind: str, **fields: Any) -> bool:
        """Enqueue one event (see :func:`_put`); ``True`` when enqueued."""
        return _put(self.queue, self.dropped, kind, fields, True)

    def emit_nowait(self, kind: str, **fields: Any) -> bool:
        """Like :meth:`emit` but without any blocking grace."""
        return _put(self.queue, self.dropped, kind, fields, False)

    # --------------------------------------------------------------- drain
    def drain(self, timeout_s: float = 0.2) -> Optional[Dict[str, Any]]:
        """Next pending event, or ``None`` after ``timeout_s``."""
        try:
            doc = self.queue.get(timeout=timeout_s)
            return doc if isinstance(doc, dict) else None
        except queue_mod.Empty:
            return None

    def drain_nowait(self) -> Optional[Dict[str, Any]]:
        """Next pending event, or ``None`` immediately."""
        return self.drain(timeout_s=0.0)

    def close(self) -> None:
        """Release the queue's resources (idempotent)."""
        try:
            self.queue.close()
        except (OSError, ValueError):  # pragma: no cover - teardown race
            pass


# ------------------------------------------------------------ worker side
class _WorkerState:
    """Per-process emitter state: queue handle, drop counts, heartbeat.

    One instance per armed process — each pool worker (via
    :func:`pool_worker_init`) and, for serial sweeps, the parent itself
    (via :func:`arm_worker`).  The heartbeat thread samples the engine
    registered by :func:`attach_engine_probe` — purely a read of
    ``engine.now`` / ``engine.events_processed``, which the simulation
    computes anyway, so heartbeats never perturb results.
    """

    def __init__(self, out_queue: Any, heartbeat_s: float) -> None:
        self.queue = out_queue
        self.heartbeat_s = heartbeat_s
        #: Cumulative drops in this process, per event kind.
        self.dropped: Dict[str, int] = {}
        #: Engine currently simulating in this process (probe target).
        self.engine: Optional[Any] = None
        #: ``(key, method, start_wall_s)`` of the running point, if any.
        self.current: Optional[Tuple[str, str, float]] = None
        self.points_done = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def drops_snapshot(self) -> Dict[str, int]:
        return dict(sorted(self.dropped.items()))

    # ------------------------------------------------------------ heartbeat
    def start_heartbeat(self) -> None:
        if self._thread is not None or self.heartbeat_s <= 0:
            return
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="comb-telemetry-heartbeat",
            daemon=True,
        )
        self._thread.start()

    def stop_heartbeat(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.heartbeat_s + _JOIN_GRACE_S)
            self._thread = None

    def heartbeat_fields(self) -> Dict[str, Any]:
        """One heartbeat payload: sim-clock position + progress counters."""
        engine = self.engine
        sim_now_s: Optional[float] = None
        events_processed = 0
        if engine is not None:
            # Racy cross-thread reads of a float and an int — safe under
            # the GIL, and purely observational (a stale sample is fine).
            try:
                sim_now_s = float(engine.now)
                events_processed = int(engine.events_processed)
            except AttributeError:  # pragma: no cover - foreign engine
                pass
        current = self.current
        busy_s = time.time() - current[2] if current is not None else None
        return {
            "sim_now_s": sim_now_s,
            "events_processed": events_processed,
            "points_done": self.points_done,
            "current_key": current[0] if current is not None else None,
            "busy_s": busy_s,
            "dropped": self.drops_snapshot(),
        }

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            _put(self.queue, self.dropped, "heartbeat",
                 self.heartbeat_fields(), False)


#: The armed emitter of this process, if any.  Written only while a
#: telemetry channel is attached; process-local by design (each pool
#: worker arms its own copy via the pool initializer).
_worker: Optional[_WorkerState] = None


def arm_worker(out_queue: Any, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
    """Arm this process as a telemetry emitter (starts the heartbeat)."""
    global _worker
    disarm_worker()
    _worker = _WorkerState(out_queue, heartbeat_s)  # comb-lint: disable=EXEC001
    _worker.start_heartbeat()


def disarm_worker() -> None:
    """Detach this process's emitter (idempotent)."""
    global _worker
    if _worker is not None:
        _worker.stop_heartbeat()
    _worker = None  # comb-lint: disable=EXEC001


def pool_worker_init(out_queue: Any, heartbeat_s: float) -> None:
    """Spawn-pool initializer: arm every worker process as an emitter."""
    arm_worker(out_queue, heartbeat_s)


def attach_engine_probe(engine: Any) -> None:
    """Expose a freshly built engine to this process's heartbeat thread.

    Called by :func:`repro.mpi.world.build_world`; a no-op (one global
    read) when no telemetry is armed, so bare runs pay nothing.
    """
    if _worker is not None:
        _worker.engine = engine


def note_point_start(key: str, method: str, fields: Dict[str, Any]) -> None:
    """Record + emit a point starting in this process (no-op unarmed)."""
    worker = _worker
    if worker is None:
        return
    worker.current = (key, method, time.time())
    payload = dict(fields)
    payload.update({"key": key, "method": method})
    _put(worker.queue, worker.dropped, "point_start", payload, True)


def note_point_end(key: str, method: str, wall_s: float) -> None:
    """Record + emit a point finishing in this process (no-op unarmed).

    The event carries the process's cumulative drop counts, so the last
    delivered ``point_end`` from each worker states that worker's
    telemetry loss even if every later heartbeat is dropped.
    """
    worker = _worker
    if worker is None:
        return
    worker.current = None
    worker.points_done += 1
    worker.engine = None
    _put(worker.queue, worker.dropped, "point_end", {
        "key": key,
        "method": method,
        "wall_s": wall_s,
        "points_done": worker.points_done,
        "dropped": worker.drops_snapshot(),
    }, True)


def worker_armed() -> bool:
    """Is this process currently armed as a telemetry emitter?"""
    return _worker is not None


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_QUEUE_CAPACITY",
    "LIFECYCLE_PUT_TIMEOUT_S",
    "STREAM_EVENT_FIELDS",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryChannel",
    "arm_worker",
    "attach_engine_probe",
    "disarm_worker",
    "make_event",
    "note_point_end",
    "note_point_start",
    "pool_worker_init",
    "validate_stream_event",
    "validate_stream_line",
    "worker_armed",
]
