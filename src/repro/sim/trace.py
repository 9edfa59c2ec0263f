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

Records go only where they are read.  :class:`MultiTracer` binds its
children's ``record`` once, and sends ``record_kernel`` — one call per
processed event — only to children whose :attr:`Tracer.reads_kernel` is
true: a tracer that overrides :meth:`Tracer.record_kernel` (the
sanitizer's clock check), or an ``ObsTracer(kernel=True)``.  Behind each
tracer, consumers declare the kinds they read: an invariant monitor's
``kinds`` (:mod:`repro.verify.monitors`; a monitor that declares none
gets every record) and the observer's kind → handler table
(:mod:`repro.obs.observer`).
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

    @property
    def reads_kernel(self) -> bool:
        """Does :meth:`record_kernel` act on anything?

        True when a subclass overrides it; a subclass whose override is
        switched off per instance says so here, and :class:`MultiTracer`
        then leaves it out of the per-event kernel stream.
        """
        return type(self).record_kernel is not Tracer.record_kernel


class MultiTracer(Tracer):
    """Fans every record out to multiple child tracers.

    Lets independent ambient attachments — e.g. the sanitizer
    (:mod:`repro.verify`) and the observer (:mod:`repro.obs`) — share the
    engine's one ``trace`` handle without knowing about each other.  The
    children are fixed at construction: their ``record`` methods are
    bound then, and ``record_kernel`` reaches only the children that
    read it (:attr:`Tracer.reads_kernel`).
    """

    def __init__(self, children: List[Tracer]):
        self.children = list(children)
        records = tuple(child.record for child in self.children)
        kernels = tuple(
            child.record_kernel for child in self.children if child.reads_kernel
        )
        self._reads_kernel = bool(kernels)

        def record(time: float, source: str, kind: str, detail: Any = None) -> None:
            for sink in records:
                sink(time, source, kind, detail)

        def record_kernel(time: float, event: Any) -> None:
            for sink in kernels:
                sink(time, event)

        # Instance attributes shadow the methods: an emitter's call costs
        # one frame here, or none when a single child takes it.
        self.record = (  # type: ignore[method-assign]
            records[0] if len(records) == 1 else record)
        self.record_kernel = (  # type: ignore[method-assign]
            kernels[0] if len(kernels) == 1 else record_kernel)

    @property
    def reads_kernel(self) -> bool:
        return self._reads_kernel
