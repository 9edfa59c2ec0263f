"""Lightweight structured tracing for simulation runs.

Tracing is opt-in: the engine and hardware models call ``record*`` methods
only when a tracer is attached.  Records are plain tuples, cheap to emit and
easy to assert on in tests.

The tracer is also the simulator's *sanitizer seam*: the runtime
invariant checker (:mod:`repro.verify`) attaches a storage-free
:class:`Tracer` subclass that dispatches each record to invariant
monitors instead of accumulating it.  Subclasses may override
:meth:`Tracer.record` and :meth:`Tracer.record_kernel` freely — emitters
only rely on the call signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple


@dataclass
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulation time of the occurrence.
    source:
        Name of the emitting component (e.g. ``"node0.nic"``).
    kind:
        Short event-kind tag (e.g. ``"packet_tx"``, ``"irq"``).
    detail:
        Free-form payload (dict or tuple).
    """

    time: float
    source: str
    kind: str
    detail: Any = None


class Tracer:
    """Collects :class:`TraceRecord`\\ s, optionally filtered by kind."""

    def __init__(self, kinds: Optional[set] = None, sink: Optional[Callable] = None):
        #: If not ``None``, only these kinds are recorded.
        self.kinds = kinds
        self.records: List[TraceRecord] = []
        #: Optional callable invoked with each record (e.g. print).
        self.sink = sink

    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        """Append a record if its kind passes the filter."""
        if self.kinds is not None and kind not in self.kinds:
            return
        rec = TraceRecord(time, source, kind, detail)
        self.records.append(rec)
        if self.sink is not None:
            self.sink(rec)

    def record_kernel(self, time: float, event: Any) -> None:
        """Hook called by the engine for every processed event (noisy;
        enabled only when ``"kernel"`` is in ``kinds``)."""
        if self.kinds is not None and "kernel" not in self.kinds:
            return
        self.record(time, "engine", "kernel", repr(event))

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records with the given kind, in emission order."""
        return [r for r in self.records if r.kind == kind]

    def counts(self) -> dict:
        """Record count per kind (insertion-ordered)."""
        out: dict = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()


class MultiTracer(Tracer):
    """Fans every record out to multiple child tracers.

    Lets independent ambient attachments — e.g. the sanitizer
    (:mod:`repro.verify`) and the observer (:mod:`repro.obs`) — share the
    single ``Engine.trace`` seam without knowing about each other.  The
    children keep their own filtering/storage policies; this class stores
    nothing itself.
    """

    def __init__(self, children: List[Tracer]):
        super().__init__()
        self.children = list(children)

    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        for child in self.children:
            child.record(time, source, kind, detail)

    def record_kernel(self, time: float, event: Any) -> None:
        for child in self.children:
            child.record_kernel(time, event)
