"""GM + MPICH/GM transport model (OS-bypass, *no* application offload).

Behavioural essentials reproduced from the paper:

* **OS-bypass** — the NIC moves data with DMA directly between host memory
  and the wire; no interrupts, no kernel copies.  Receive-side events are
  records the NIC writes into a user-visible completion queue (CQ).
* **Library-polled progress** — nothing in the protocol advances unless the
  application is inside an MPI call that polls the CQ.  This is the MPI
  Progress Rule violation §4.3 discusses, and what PWW detects.
* **Eager/rendezvous split at 16 KB** — eager sends cost ~45 µs of host CPU
  (copy into a registered send buffer); rendezvous sends cost ~5 µs (emit an
  RTS); the CTS → zero-copy DMA handshake requires library passes on *both*
  sides.

All library work (progress passes, matching, eager copies, control sends)
is charged to the calling user context via ``ctx.compute`` — GM runs
entirely in user space.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..config import SystemConfig
from ..hardware.cpu import CpuContext
from ..hardware.memory import copy_time
from ..hardware.nic import SendJob
from ..hardware.node import Node
from ..mpi.matching import Admission, PostedQueue, UnexpectedQueue
from ..mpi.request import Request
from ..sim.engine import Engine
from .base import Device
from .packets import (
    Envelope,
    Packet,
    PacketKind,
    control_packet,
    next_msg_id,
    packetize,
)


class EagerArrival:
    """A fully-arrived eager message sitting in the GM bounce buffer."""

    __slots__ = ("envelope", "msg_id")

    def __init__(self, envelope: Envelope, msg_id: int):
        self.envelope = envelope
        self.msg_id = msg_id


class RtsArrival:
    """A rendezvous request-to-send awaiting a matching receive."""

    __slots__ = ("envelope", "msg_id", "src_node")

    def __init__(self, envelope: Envelope, msg_id: int, src_node: int):
        self.envelope = envelope
        self.msg_id = msg_id
        self.src_node = src_node


class GmDevice(Device):
    """Per-rank MPICH/GM engine."""

    def __init__(self, engine: Engine, node: Node, rank: int, system: SystemConfig):
        super().__init__(engine, node, rank, system)
        self.params = system.gm
        #: NIC-written completion queue, polled by library progress.
        self.cq: Deque[Tuple] = deque()
        #: Arrival records admitted in sequence order, awaiting processing.
        self._admitted: Deque[object] = deque()
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        self.admission = Admission(self._admitted.append)
        self._send_seq: Dict[int, int] = {}
        self._pending_cts: Dict[int, Request] = {}
        self._rx_env: Dict[int, Envelope] = {}
        # Eager flow control (MPICH/GM bounce-buffer tokens).
        self._eager_tokens: Dict[int, int] = {}
        self._eager_backlog: Dict[int, deque] = {}
        self._tokens_to_return: Dict[int, int] = {}
        node.nic.rx_handler = self.nic_rx
        node.transport = self

    # ------------------------------------------------------------- semantics
    def has_work(self) -> bool:
        return bool(self.cq) or bool(self._admitted)

    # ------------------------------------------------------------ operations
    def isend(self, ctx: CpuContext, req: Request):
        gm = self.params
        dest_node = self.node_of(req.peer)
        seq = self._send_seq.get(req.peer, 0)
        self._send_seq[req.peer] = seq + 1
        msg_id = next_msg_id()
        req.msg_id = msg_id
        env = Envelope(self.rank, req.peer, req.tag, req.nbytes, seq)
        if req.nbytes < gm.eager_threshold_bytes:
            # Eager: expensive host-side send (copy into registered buffer).
            yield ctx.compute(gm.eager_isend_s)
            pkts = packetize(
                PacketKind.DATA, self.node.node_id, dest_node, msg_id,
                req.nbytes, self.system.machine.nic.mtu_bytes,
                envelope=env, meta={"proto": "eager"},
            )
            job = SendJob(
                pkts, on_done=lambda: self._cq_push(("send_done", req)),
            )
            tokens = self._eager_tokens.setdefault(
                dest_node, gm.eager_tokens
            )
            if tokens > 0:
                self._eager_tokens[dest_node] = tokens - 1
                if self.engine.trace is not None:
                    self.engine.trace.record(
                        self.engine.now, f"rank{self.rank}.gm", "gm_tokens",
                        (dest_node, tokens - 1, gm.eager_tokens),
                    )
                self.node.nic.submit(job)
            else:
                # Receiver bounce buffers exhausted: the library queues the
                # prepared send until tokens flow back.
                self._eager_backlog.setdefault(dest_node, deque()).append(job)
                if self.engine.trace is not None:
                    # Schema: (msg_id, dest_node) — marks the start of a
                    # token-starvation stall for span stitching.
                    self.engine.trace.record(
                        self.engine.now, f"rank{self.rank}.gm",
                        "gm_token_wait", (msg_id, dest_node),
                    )
        else:
            # Rendezvous: cheap post, data waits for the CTS handshake.
            yield ctx.compute(gm.rndv_isend_s)
            self._pending_cts[msg_id] = req
            rts = control_packet(
                PacketKind.RTS, self.node.node_id, dest_node, msg_id,
                envelope=env,
            )
            self.stats.ctrl_packets += 1
            self.node.nic.submit(SendJob([rts], urgent=True))
        return req

    def irecv(self, ctx: CpuContext, req: Request):
        gm = self.params
        yield ctx.compute(gm.irecv_s)
        rec = self.unexpected.match(req.peer, req.tag)
        if rec is None:
            self.posted.post(req.peer, req.tag, req)
        elif isinstance(rec, EagerArrival):
            yield ctx.compute(
                copy_time(rec.envelope.nbytes, gm.eager_copy_bandwidth_Bps)
            )
            req.msg_id = rec.msg_id
            req.complete(src=rec.envelope.src_rank, tag=rec.envelope.tag)
            self._release_eager_token(rec)
        else:  # rendezvous RTS already here: answer it now
            yield from self._send_cts(ctx, rec, req)
        return req

    def progress(self, ctx: CpuContext):
        """One progress pass: drain the CQ snapshot + any admitted records."""
        gm = self.params
        self.stats.progress_passes += 1
        yield ctx.compute(gm.progress_poll_s)
        budget = len(self.cq)
        while budget > 0 or self._admitted:
            if self._admitted:
                rec = self._admitted.popleft()
                yield from self._process_arrival(ctx, rec)
                continue
            entry = self.cq.popleft()
            budget -= 1
            kind = entry[0]
            if kind == "send_done":
                yield ctx.compute(gm.match_s)
                entry[1].complete()
            elif kind == "rndv_done":
                req, env = entry[1], entry[2]
                yield ctx.compute(gm.match_s)
                req.complete(src=env.src_rank, tag=env.tag)
            elif kind in ("eager_arrived", "rts"):
                self.admission.offer(entry[1])
            elif kind == "cts":
                yield from self._handle_cts(ctx, entry[1], entry[2])
            elif kind == "tokens":
                yield ctx.compute(gm.progress_poll_s)
                self._restore_tokens(entry[1], entry[2])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown CQ entry {kind!r}")

    def peek_unexpected(self, src: int, tag: int):
        rec = self.unexpected.peek(src, tag)
        return rec.envelope if rec is not None else None

    def cancel_recv(self, req) -> bool:
        return self.posted.remove(req)

    # ------------------------------------------------------------- internals
    def _cq_push(self, entry: Tuple) -> None:
        self.cq.append(entry)
        self.signal()

    def _process_arrival(self, ctx: CpuContext, rec) -> None:
        gm = self.params
        yield ctx.compute(gm.match_s)
        req = self.posted.match(rec.envelope)
        if req is None:
            self.unexpected.add(rec)
            self.signal()  # probe/iprobe callers wait on the device signal
        elif isinstance(rec, EagerArrival):
            yield ctx.compute(
                copy_time(rec.envelope.nbytes, gm.eager_copy_bandwidth_Bps)
            )
            req.msg_id = rec.msg_id
            req.complete(src=rec.envelope.src_rank, tag=rec.envelope.tag)
            self._release_eager_token(rec)
        else:
            yield from self._send_cts(ctx, rec, req)

    def _send_cts(self, ctx: CpuContext, rec: RtsArrival, req: Request):
        """Answer an RTS: emit a CTS carrying the receive-buffer handle."""
        gm = self.params
        yield ctx.compute(gm.ctrl_send_s)
        req.msg_id = rec.msg_id
        cts = control_packet(
            PacketKind.CTS, self.node.node_id, rec.src_node, rec.msg_id,
            meta={"handle": req, "envelope": rec.envelope},
        )
        self.stats.ctrl_packets += 1
        self.node.nic.submit(SendJob([cts], urgent=True))

    def _handle_cts(self, ctx: CpuContext, msg_id: int, meta: dict):
        """CTS arrived: program the NIC for the zero-copy data transfer."""
        gm = self.params
        yield ctx.compute(gm.ctrl_send_s)
        req = self._pending_cts.pop(msg_id)
        dest_node = self.node_of(req.peer)
        pkts = packetize(
            PacketKind.DATA, self.node.node_id, dest_node, msg_id,
            req.nbytes, self.system.machine.nic.mtu_bytes,
            meta={"proto": "rndv", "handle": meta["handle"],
                  "envelope": meta["envelope"]},
        )
        self.node.nic.submit(SendJob(
            pkts, on_done=lambda: self._cq_push(("send_done", req)),
        ))

    # ------------------------------------------------------ eager tokens
    def _release_eager_token(self, rec: EagerArrival) -> None:
        """An eager bounce buffer was consumed: return its token to the
        sender (batched into one control packet per few tokens)."""
        src_node = self.node_of(rec.envelope.src_rank)
        pending = self._tokens_to_return.get(src_node, 0) + 1
        if pending >= self.params.eager_token_batch:
            token = control_packet(
                PacketKind.ACK, self.node.node_id, src_node, rec.msg_id,
                meta={"tokens": pending},
            )
            self.stats.ctrl_packets += 1
            self.node.nic.submit(SendJob([token], urgent=True))
            pending = 0
        self._tokens_to_return[src_node] = pending

    def _restore_tokens(self, src_node: int, n: int) -> None:
        """Sender side: tokens returned; flush the eager backlog."""
        tokens = self._eager_tokens.get(src_node, self.params.eager_tokens) + n
        backlog = self._eager_backlog.get(src_node)
        while backlog and tokens > 0:
            self.node.nic.submit(backlog.popleft())
            tokens -= 1
        self._eager_tokens[src_node] = tokens
        if self.engine.trace is not None:
            self.engine.trace.record(
                self.engine.now, f"rank{self.rank}.gm", "gm_tokens",
                (src_node, tokens, self.params.eager_tokens),
            )

    # ---------------------------------------------------------------- NIC rx
    def nic_rx(self, pkt: Packet) -> None:
        """NIC receive completion: write a CQ record (zero host CPU)."""
        if pkt.kind is PacketKind.DATA:
            if pkt.meta.get("proto") == "rndv":
                if pkt.is_last:
                    self._cq_push(
                        ("rndv_done", pkt.meta["handle"], pkt.meta["envelope"])
                    )
            else:  # eager
                if pkt.is_first:
                    self._rx_env[pkt.msg_id] = pkt.envelope
                if pkt.is_last:
                    env = self._rx_env.pop(pkt.msg_id)
                    self._cq_push(("eager_arrived", EagerArrival(env, pkt.msg_id)))
        elif pkt.kind is PacketKind.RTS:
            self._cq_push(("rts", RtsArrival(pkt.envelope, pkt.msg_id, pkt.src)))
        elif pkt.kind is PacketKind.CTS:
            self._cq_push(("cts", pkt.msg_id, pkt.meta))
        elif pkt.kind is PacketKind.ACK:
            # Eager-token return.
            self._cq_push(("tokens", pkt.src, pkt.meta["tokens"]))
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"GM cannot handle {pkt.kind}")
