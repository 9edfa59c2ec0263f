"""Structured event tracer backed by per-kind ring buffers.

:class:`ObsTracer` implements the :class:`~repro.sim.trace.Tracer`
interface, so on an engine's ``trace`` every emission site in the engine,
hardware models, transports, and MPI layer feeds it.  It

* stores :class:`ObsEvent` records (with a global sequence number) in
  one bounded :class:`~repro.obs.ring.RingBuffer` per event kind, so a
  noisy kind (``wire_tx``) cannot evict a rare one (``rts_rx``);
* skips per-kernel-event records unless explicitly asked
  (``kernel=True``) — the kernel stream is one record per processed
  event and is rarely worth its volume, so without it
  :attr:`~ObsTracer.reads_kernel` is false and a
  :class:`~repro.sim.trace.MultiTracer` does not call it at all;
* optionally forwards each stored event to a dispatch callable — the
  hook :class:`~repro.obs.observer.Observer` uses to derive metrics.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from ..sim.trace import Tracer
from .ring import RingBuffer


class ObsEvent(NamedTuple):
    """One traced occurrence, as stored by :class:`ObsTracer`.

    ``seq`` is a tracer-global emission sequence number: merged streams
    sort by it to recover exact emission order even among equal-time
    events.
    """

    seq: int
    time_s: float
    source: str
    kind: str
    detail: Any


#: Builds an :class:`ObsEvent` from its field tuple without the Python
#: frame of the generated ``ObsEvent.__new__``, which more than doubles
#: the cost of building one.
_new_tuple: Any = tuple.__new__
_by_seq = itemgetter(0)


class ObsTracer(Tracer):
    """Ring-buffered structured tracer.

    Parameters
    ----------
    ring_capacity:
        Per-kind ring size; the newest events of each kind survive.
    kernel:
        Record the per-event kernel stream too (very noisy; off by
        default).
    """

    def __init__(
        self,
        ring_capacity: int = 65536,
        kernel: bool = False,
    ) -> None:
        self.ring_capacity = ring_capacity
        self.kernel = kernel
        #: Event kind -> ring of :class:`ObsEvent` (insertion order).
        self.rings: Dict[str, RingBuffer] = {}
        #: Optional per-event hook (used by :class:`Observer` for metrics).
        self.dispatch: Optional[Callable[[ObsEvent], None]] = None
        self._seq = 0

    # ------------------------------------------------------------- recording
    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        ev: ObsEvent = _new_tuple(ObsEvent, (self._seq, time, source, kind, detail))
        self._seq += 1
        ring = self.rings.get(kind)
        if ring is None:
            ring = self.rings[kind] = RingBuffer(self.ring_capacity)
        ring.append(ev)
        if self.dispatch is not None:
            self.dispatch(ev)

    def record_kernel(self, time: float, event: Any) -> None:
        # The class name: the engine has detached the event's callbacks
        # by now, and its repr carries a memory address.
        if self.kernel:
            self.record(time, "engine", "kernel", type(event).__name__)

    @property
    def reads_kernel(self) -> bool:
        return self.kernel

    # --------------------------------------------------------------- queries
    def events(self) -> List[ObsEvent]:
        """Every retained event across all kinds, in emission order."""
        out: List[ObsEvent] = []
        for ring in self.rings.values():
            out.extend(ring)
        out.sort(key=_by_seq)  # seq is unique: the order is total
        return out

    def of_kind(self, kind: str) -> List[Any]:
        """Retained events of one kind, oldest first."""
        ring = self.rings.get(kind)
        return ring.to_list() if ring is not None else []

    def counts(self) -> Dict[str, int]:
        """*Total* emission count per kind (retained + dropped)."""
        return {
            kind: len(ring) + ring.dropped
            for kind, ring in sorted(self.rings.items())
        }

    def dropped(self) -> Dict[str, int]:
        """Events lost to ring wraparound, per kind (zero entries omitted)."""
        return {
            kind: ring.dropped
            for kind, ring in sorted(self.rings.items())
            if ring.dropped
        }

    def clear(self) -> None:
        """Drop all retained events (sequence numbering continues)."""
        self.rings.clear()
