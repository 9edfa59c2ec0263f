"""Transport device interface.

A :class:`Device` is the per-rank messaging engine an MPI endpoint drives.
Its operation methods (``isend``/``irecv``/``progress``) are *generators*:
the MPI layer runs them inside the calling process so that their CPU costs
land on the right execution context (user compute for library work, kernel
work for traps) — that placement is exactly what COMB measures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..config import SystemConfig
from ..sim.engine import Engine
from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycles)
    from ..hardware.cpu import CpuContext
    from ..hardware.node import Node
    from ..mpi.request import Request


@dataclass
class DeviceStats:
    """Cumulative traffic counters (payload bytes, not wire bytes).

    Benchmarks snapshot these at window edges and report deltas, so all
    counters are monotonic.
    """

    bytes_send_done: int = 0
    bytes_recv_done: int = 0
    msgs_send_done: int = 0
    msgs_recv_done: int = 0
    #: Control packets emitted (RTS+CTS+ACK).
    ctrl_packets: int = 0
    #: Progress passes executed by the library.
    progress_passes: int = 0

    def snapshot(self) -> "DeviceStats":
        """A frozen copy."""
        return DeviceStats(**{k: getattr(self, k) for k in self.__dataclass_fields__})

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counter-wise ``self - earlier``."""
        return DeviceStats(
            **{
                k: getattr(self, k) - getattr(earlier, k)
                for k in self.__dataclass_fields__
            }
        )


class Device(abc.ABC):
    """Per-rank messaging engine bound to one node's hardware."""

    def __init__(self, engine: Engine, node: Node, rank: int, system: SystemConfig):
        self.engine = engine
        self.node = node
        self.rank = rank
        self.system = system
        self.stats = DeviceStats()
        self._wakeup: Optional[Event] = None
        #: rank -> node id routing table; set by the world builder.
        self.routes: Dict[int, int] = {}

    # ------------------------------------------------------------ operations
    @abc.abstractmethod
    def isend(self, ctx: CpuContext, req: Request):
        """Generator: post a non-blocking send for ``req``."""

    @abc.abstractmethod
    def irecv(self, ctx: CpuContext, req: Request):
        """Generator: post a non-blocking receive for ``req``."""

    @abc.abstractmethod
    def progress(self, ctx: CpuContext):
        """Generator: one library progress pass (the body of ``MPI_Test``)."""

    @abc.abstractmethod
    def has_work(self) -> bool:
        """``True`` if a progress pass would do more than poll."""

    # ------------------------------------------------------- optional queries
    def peek_unexpected(self, src: int, tag: int):
        """Envelope of the oldest matchable unexpected message, if any.

        Used by ``MPI_Iprobe``; default: no visibility (subclasses that
        keep an unexpected queue override this).
        """
        return None

    def cancel_recv(self, req) -> bool:
        """Withdraw a posted receive (``MPI_Cancel``); default: cannot."""
        return False

    # -------------------------------------------------------------- signaling
    def wakeup(self) -> Event:
        """An event fired at the device's next noteworthy occurrence
        (completion-queue insertion or request completion).

        Each firing consumes the event; callers re-arm by calling again.
        """
        if self._wakeup is None or self._wakeup.triggered:
            self._wakeup = Event(self.engine)
        return self._wakeup

    def signal(self) -> None:
        """Fire the pending wakeup, if any."""
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def record_completion(self, req: Request) -> None:
        """Hook invoked by :meth:`Request.complete` for stats + wakeup."""
        from ..mpi.request import RequestKind

        if req.kind is RequestKind.SEND:
            self.stats.bytes_send_done += req.nbytes
            self.stats.msgs_send_done += 1
        else:
            self.stats.bytes_recv_done += req.nbytes
            self.stats.msgs_recv_done += 1
        self.signal()

    # ---------------------------------------------------------------- helpers
    def node_of(self, rank: int) -> int:
        """Destination node id for ``rank``."""
        try:
            return self.routes[rank]
        except KeyError:
            raise RuntimeError(f"no route to rank {rank}") from None
