"""Kernel-based Portals 3.0 transport model (*application offload*).

Behavioural essentials reproduced from the paper (§3, §4):

* **Kernel-driven** — posting a send or receive traps into the kernel
  (expensive: Fig 10's high Portals post times); every arriving packet
  interrupts the host CPU; data handlers run the reliability/flow-control
  module and copy payloads from kernel buffers into user space.
* **Application offload** — matching and delivery happen in the kernel, so
  communication progresses with *no* MPI library calls; request completion
  flags are simply set in user-visible memory.  PWW's wait phase therefore
  collapses to ~0 once the work interval covers the transfer (Fig 11).
* **CPU contention** — interrupt handling + copies steal cycles from the
  application; this both caps bandwidth below GM's and produces the low
  CPU-availability plateau of Figs 4/15.

Two message protocols, mirroring the Portals MPI design:

* **short** (< ``rndv_threshold_bytes``): pushed eagerly; an unexpected
  short message buffers in kernel memory and pays a second copy when the
  receive is finally posted;
* **long**: the sender's kernel publishes a header (RTS); the *receiver's
  kernel* issues a GET once a matching receive exists, and the data streams
  straight into the posted user buffer.  Both halves are kernel-driven, so
  application offload is preserved and long unexpected messages never pay a
  double copy.

The same class also serves the TCP-flavoured stack used by the netperf
baseline (:class:`TcpDevice`), which differs only in its cost constants
(and never takes the long-message path).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import PortalsParams, SystemConfig
from ..hardware.cpu import CpuContext
from ..hardware.memory import copy_time
from ..hardware.nic import SendJob
from ..hardware.node import Node
from ..mpi.matching import Admission, PostedQueue, UnexpectedQueue
from ..mpi.request import Request
from ..os.driver import GoBackNRx, GoBackNTx, RxDecision
from ..sim.engine import Engine
from ..sim.events import Event
from ..sim.resources import Store
from .base import Device
from .packets import (
    Envelope,
    Packet,
    PacketKind,
    control_packet,
    next_msg_id,
    packetize,
)

#: Default go-back-N window (see ``PortalsParams.tx_window_pkts``).
TX_WINDOW_PKTS = 4


class HeadRecord:
    """Envelope record offered to the kernel matcher.

    Produced by the first packet of a short (pushed) message or by a long
    message's RTS header; ``long`` distinguishes the two.
    """

    __slots__ = ("envelope", "msg_id", "long")

    def __init__(self, envelope: Envelope, msg_id: int, long: bool):
        self.envelope = envelope
        self.msg_id = msg_id
        self.long = long


class UnexpectedMessage:
    """A message with no posted receive.

    Short messages accumulate payload in kernel buffers (``complete`` flips
    once fully arrived); long messages store *only* this header record.
    """

    __slots__ = ("envelope", "msg_id", "long", "complete")

    def __init__(self, envelope: Envelope, msg_id: int, long: bool):
        self.envelope = envelope
        self.msg_id = msg_id
        self.long = long
        self.complete = False


class _Assembly:
    """Kernel-side reassembly state for one inbound message."""

    __slots__ = ("binding", "got_last", "envelope")

    def __init__(self):
        self.binding = None          # Request | UnexpectedMessage | None
        self.got_last = False
        self.envelope: Optional[Envelope] = None


class PortalsDevice(Device):
    """Per-rank kernel-Portals engine."""

    def __init__(self, engine: Engine, node: Node, rank: int, system: SystemConfig):
        super().__init__(engine, node, rank, system)
        self.params: PortalsParams = self._select_params(system)
        self.k_posted = PostedQueue()
        self.k_unexpected = UnexpectedQueue()
        self.admission = Admission(self._k_match)
        self._send_seq: Dict[int, int] = {}
        self._asm: Dict[int, _Assembly] = {}
        self._pending_get: Dict[int, Tuple[Request, int]] = {}
        self._txq = Store(engine, name=f"rank{rank}.txq")
        self._gbn_tx: Dict[int, GoBackNTx] = {}
        self._gbn_rx: Dict[int, GoBackNRx] = {}
        self._tx_waiters: Dict[int, Deque[Event]] = {}
        self._rto_deadline: Dict[int, float] = {}
        self._rto_armed: Dict[int, bool] = {}
        node.nic.rx_handler = self.nic_rx
        node.transport = self
        engine.spawn(self._tx_pump(), name=f"rank{rank}.txpump")

    @staticmethod
    def _select_params(system: SystemConfig):
        return system.portals

    # ------------------------------------------------------------- semantics
    def has_work(self) -> bool:
        # The kernel does everything; the library never has pending work.
        return False

    # ------------------------------------------------------------ operations
    def isend(self, ctx: CpuContext, req: Request):
        p = self.params
        dest_node = self.node_of(req.peer)
        # Trap into the kernel: descriptor setup + match-entry bookkeeping.
        yield ctx.trap(p.isend_trap_s, label="isend_trap")
        seq = self._send_seq.get(req.peer, 0)
        self._send_seq[req.peer] = seq + 1
        msg_id = next_msg_id()
        req.msg_id = msg_id
        env = Envelope(self.rank, req.peer, req.tag, req.nbytes, seq)
        if req.nbytes >= p.rndv_threshold_bytes:
            # Long protocol: publish the header; data moves when the
            # receiver's kernel pulls it.
            self._pending_get[msg_id] = (req, dest_node)
            rts = control_packet(
                PacketKind.RTS, self.node.node_id, dest_node, msg_id,
                envelope=env,
            )
            self.stats.ctrl_packets += 1
            self.node.nic.submit(SendJob([rts], urgent=True))
        else:
            pkts = packetize(
                PacketKind.DATA, self.node.node_id, dest_node, msg_id,
                req.nbytes, self.system.machine.nic.mtu_bytes,
                envelope=env, meta={"proto": "short"},
            )
            self._txq.put((req, pkts))
        return req

    def irecv(self, ctx: CpuContext, req: Request):
        p = self.params
        yield ctx.trap(p.irecv_trap_s, label="irecv_trap")
        rec = self.k_unexpected.match(req.peer, req.tag)
        if rec is None:
            self.k_posted.post(req.peer, req.tag, req)
        elif rec.long:
            # Only a header is buffered: bind and pull (kernel-driven GET).
            req.msg_id = rec.msg_id
            asm = self._asm.setdefault(rec.msg_id, _Assembly())
            asm.envelope = rec.envelope
            asm.binding = req
            self._issue_get(rec)
        elif rec.complete:
            # Whole short message in kernel buffers: one more copy to user.
            env = rec.envelope
            yield ctx.trap(
                copy_time(env.nbytes, p.rx_copy_bandwidth_Bps),
                fn=lambda: req.complete(src=env.src_rank, tag=env.tag),
                label="unexpected_copy",
            )
        else:
            # Short message still streaming in: re-bind the remaining
            # packets to the user buffer.
            asm = self._asm.get(rec.msg_id)
            if asm is not None:
                asm.binding = req
            req.msg_id = rec.msg_id
        return req

    def progress(self, ctx: CpuContext):
        """Library progress: a cheap user-space completion-flag check."""
        self.stats.progress_passes += 1
        yield ctx.compute(self.params.progress_poll_s)

    def peek_unexpected(self, src: int, tag: int):
        rec = self.k_unexpected.peek(src, tag)
        return rec.envelope if rec is not None else None

    def cancel_recv(self, req) -> bool:
        return self.k_posted.remove(req)

    # ------------------------------------------------------------- transmit
    def _tx_pump(self):
        """Kernel transmit pump: window-limited, per-packet driver work.

        Each packet is admitted into the destination's go-back-N window
        (blocking while it is full), charged its driver work
        (:meth:`_tx_admit`), tagged with its sequence number, and handed
        to the NIC; the retransmission timer covers it until the
        cumulative ack arrives.
        """
        while True:
            req, pkts = yield self._txq.get()
            for pkt in pkts:
                yield self._gbn_slot(pkt.dst)
                admitted = self._tx_admit(pkt)
                if admitted is not None:
                    yield admitted
                flow = self._tx_flow(pkt.dst)
                pkt.meta["seq"] = flow.register(pkt)
                on_done = None
                if pkt.is_last:
                    # Local completion: NIC has DMA'd the last fragment off
                    # host memory; the kernel flags the request done with no
                    # library involvement (application offload).
                    on_done = (lambda r=req: self._tx_done(r))
                self.node.nic.submit(SendJob([pkt], on_done=on_done))
                self._arm_rto(pkt.dst)

    def _tx_admit(self, pkt: Packet) -> Optional[Event]:
        """Per-packet driver work before ``pkt`` goes to the NIC (the
        event to wait on), or ``None`` when there is none."""
        return self.node.cpu.kernel_work(self.params.tx_kernel_s,
                                         label="tx_kernel")

    def _tx_done(self, req: Request) -> None:
        if not req.done:
            req.complete()

    # --------------------------------------------------------- reliability
    def _tx_flow(self, dest_node: int) -> GoBackNTx:
        flow = self._gbn_tx.get(dest_node)
        if flow is None:
            flow = GoBackNTx(self.params.tx_window_pkts,
                             self.params.dup_ack_threshold)
            self._gbn_tx[dest_node] = flow
        return flow

    def _rx_flow(self, src_node: int) -> GoBackNRx:
        flow = self._gbn_rx.get(src_node)
        if flow is None:
            flow = GoBackNRx(
                min(self.params.ack_every, self.params.tx_window_pkts)
            )
            self._gbn_rx[src_node] = flow
        return flow

    def _gbn_slot(self, dest_node: int) -> Event:
        """Event firing when the destination's window has room."""
        ev = Event(self.engine)
        if self._tx_flow(dest_node).can_send:
            ev.succeed()
        else:
            self._tx_waiters.setdefault(dest_node, deque()).append(ev)
        return ev

    def _on_ack(self, dest_node: int, cum: int) -> None:
        """Cumulative ack from ``dest_node``'s receiver (kernel context)."""
        flow = self._tx_flow(dest_node)
        released, retransmit = flow.on_ack(cum)
        if released:
            self._rto_deadline[dest_node] = (
                self.engine.now + self.params.rto_s
            )
            waiters = self._tx_waiters.get(dest_node)
            while waiters and flow.can_send:
                waiters.popleft().succeed()
        if retransmit:
            self._retransmit(dest_node, retransmit)

    def _retransmit(self, dest_node: int, pkts) -> None:
        """Queue retransmissions (kernel work per packet, as on first tx)."""
        p = self.params
        for pkt in pkts:
            self.node.cpu.kernel_work(
                p.tx_kernel_s,
                fn=(lambda q=pkt: self.node.nic.submit(SendJob([q]))),
                label="tx_retransmit",
            )
        self._rto_deadline[dest_node] = self.engine.now + p.rto_s

    def _arm_rto(self, dest_node: int) -> None:
        self._rto_deadline[dest_node] = self.engine.now + self.params.rto_s
        if self._rto_armed.get(dest_node):
            return
        self._rto_armed[dest_node] = True
        self.engine.schedule_callback(
            self.params.rto_s, lambda: self._check_rto(dest_node)
        )

    def _check_rto(self, dest_node: int) -> None:
        self._rto_armed[dest_node] = False
        flow = self._tx_flow(dest_node)
        if not flow.has_unacked:
            return
        deadline_s = self._rto_deadline.get(dest_node, 0.0)
        if self.engine.now + 1e-12 >= deadline_s:
            self._retransmit(dest_node, flow.on_timeout())
            delay_s = self.params.rto_s
        else:
            # Progress moved the deadline_s: re-check exactly then.
            delay_s = deadline_s - self.engine.now
        self._rto_armed[dest_node] = True
        self.engine.schedule_callback(
            delay_s, lambda: self._check_rto(dest_node)
        )

    # ---------------------------------------------------------------- NIC rx
    def nic_rx(self, pkt: Packet) -> None:
        """NIC receive: DMA landed in the kernel ring; interrupt the host."""
        p = self.params
        if pkt.kind is PacketKind.DATA:
            cost = p.rx_handler_s + copy_time(
                pkt.payload_bytes, p.rx_copy_bandwidth_Bps
            )
            if pkt.is_first and "long" not in pkt.meta:
                cost += p.match_s
            self.node.irq.raise_irq(
                cost, fn=lambda: self._rx_commit(pkt), label="portals_rx"
            )
        elif pkt.kind is PacketKind.RTS:
            self.node.irq.raise_irq(
                p.ctrl_handler_s + p.match_s,
                fn=lambda: self._rts_commit(pkt), label="portals_rts",
            )
        elif pkt.kind is PacketKind.CTS:  # the GET request
            self.node.irq.raise_irq(
                p.ctrl_handler_s,
                fn=lambda: self._get_commit(pkt), label="portals_get",
            )
        elif pkt.kind is PacketKind.ACK:
            self.node.irq.raise_irq(
                p.ack_handler_s,
                fn=lambda: self._on_ack(pkt.src, pkt.meta["cum"]),
                label="portals_ack",
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"Portals cannot handle {pkt.kind}")

    def _rx_commit(self, pkt: Packet) -> None:
        """Kernel handler body for data: reliability check, delivery, ack."""
        decision = self._gbn_accept(pkt)
        if decision.deliver:
            self._rx_deliver(pkt)
        if decision.send_ack:
            self._send_gbn_ack(pkt.src, decision.cum)

    def _gbn_accept(self, pkt: Packet) -> RxDecision:
        """Run the go-back-N receiver state machine for ``pkt``."""
        return self._rx_flow(pkt.src).on_data(
            pkt.meta["seq"], force_ack=pkt.is_last
        )

    def _send_gbn_ack(self, dest_node: int, cum: int) -> None:
        ack = control_packet(
            PacketKind.ACK, self.node.node_id, dest_node, cum,
            meta={"cum": cum},
        )
        self.stats.ctrl_packets += 1
        self.node.nic.submit(SendJob([ack], urgent=True))

    def _rx_deliver(self, pkt: Packet) -> None:
        """Bind/assemble/complete an inbound data packet (no ack logic)."""
        asm = self._asm.setdefault(pkt.msg_id, _Assembly())
        if pkt.is_first and "long" not in pkt.meta:
            asm.envelope = pkt.envelope
            self.admission.offer(HeadRecord(pkt.envelope, pkt.msg_id, False))
        if pkt.is_last:
            asm.got_last = True
        self._maybe_finish(pkt.msg_id)

    def _rts_commit(self, pkt: Packet) -> None:
        """Kernel handler body for a long message's header."""
        if self.engine.trace is not None:
            self.engine.trace.record(
                self.engine.now, f"rank{self.rank}.portals", "rts_rx",
                (pkt.msg_id,),
            )
        self.admission.offer(HeadRecord(pkt.envelope, pkt.msg_id, True))

    def _get_commit(self, pkt: Packet) -> None:
        """Kernel handler body for a GET: start streaming the data."""
        req, dest_node = self._pending_get.pop(pkt.msg_id)
        pkts = packetize(
            PacketKind.DATA, self.node.node_id, dest_node, pkt.msg_id,
            req.nbytes, self.system.machine.nic.mtu_bytes,
            meta={"proto": "long", "long": True},
        )
        self._txq.put((req, pkts))

    def _issue_get(self, rec_or_head) -> None:
        """Send a GET (wire kind CTS) asking the sender to stream the data."""
        if self.engine.trace is not None:
            self.engine.trace.record(
                self.engine.now, f"rank{self.rank}.portals", "get_issued",
                (rec_or_head.msg_id,),
            )
        src_node = self.node_of(rec_or_head.envelope.src_rank)
        get = control_packet(
            PacketKind.CTS, self.node.node_id, src_node, rec_or_head.msg_id,
        )
        self.stats.ctrl_packets += 1
        self.node.nic.submit(SendJob([get], urgent=True))

    def _k_match(self, head: HeadRecord) -> None:
        """Kernel matcher: bind the inbound message to its consumer."""
        asm = self._asm.setdefault(head.msg_id, _Assembly())
        asm.envelope = head.envelope
        req = self.k_posted.match(head.envelope)
        if req is not None:
            req.msg_id = head.msg_id
            asm.binding = req
            if head.long:
                self._issue_get(head)
        else:
            rec = UnexpectedMessage(head.envelope, head.msg_id, head.long)
            self.k_unexpected.add(rec)
            if not head.long:
                asm.binding = rec
            # Probe/iprobe callers wait on the device signal.
            self.signal()
        self._maybe_finish(head.msg_id)

    def _maybe_finish(self, msg_id: int) -> None:
        asm = self._asm.get(msg_id)
        if asm is None or not asm.got_last or asm.binding is None:
            return
        del self._asm[msg_id]
        env = asm.envelope
        if isinstance(asm.binding, Request):
            asm.binding.complete(src=env.src_rank, tag=env.tag)
        else:
            asm.binding.complete = True


class TcpDevice(PortalsDevice):
    """Sockets/TCP-flavoured kernel transport (netperf's home turf).

    Identical mechanics to :class:`PortalsDevice` with heavier syscall and
    per-packet costs and no long-message protocol (TCP just streams); the
    *blocking* wait style netperf assumes is chosen at the MPI layer, not
    here.
    """

    @staticmethod
    def _select_params(system: SystemConfig):
        return system.tcp
