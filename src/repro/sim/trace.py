"""The simulator's trace seam.

``Engine.trace`` is the only tracer handle in a simulation: the engine,
NICs, links, transports, MPI requests and the COMB drivers all read it
and emit nothing when it is ``None``, so untraced runs pay one attribute
test per site.  What a record becomes is up to the :class:`Tracer` on
that handle — the interface is two methods, :meth:`Tracer.record` and
:meth:`Tracer.record_kernel`, and the base class stores nothing.  The
observer's :class:`~repro.obs.tracer.ObsTracer` keeps ring-buffered
events, the sanitizer's tracer (:mod:`repro.verify`) feeds invariant
monitors, and :class:`MultiTracer` fans one stream out to both.  The
matching-queue ``q_*`` events are wired by the world builder
(:mod:`repro.mpi.world`), which hands them to each attachment directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List


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
    """The tracer interface: what an emitter may call on ``engine.trace``.

    It stores nothing; implementations decide what a record becomes
    (:class:`MultiTracer` fans out, the sanitizer's tracer feeds invariant
    monitors, :class:`~repro.obs.tracer.ObsTracer` keeps ring-buffered
    events).  The base methods ignore every record.
    """

    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        """One traced occurrence from ``source`` at simulated ``time``."""

    def record_kernel(self, time: float, event: Any) -> None:
        """Called by the engine for every processed event."""


class MultiTracer(Tracer):
    """Fans every record out to multiple child tracers.

    Lets independent ambient attachments — e.g. the sanitizer
    (:mod:`repro.verify`) and the observer (:mod:`repro.obs`) — share the
    engine's one ``trace`` handle without knowing about each other.
    """

    def __init__(self, children: List[Tracer]):
        self.children = list(children)

    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        for child in self.children:
            child.record(time, source, kind, detail)

    def record_kernel(self, time: float, event: Any) -> None:
        for child in self.children:
            child.record_kernel(time, event)
