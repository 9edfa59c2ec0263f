"""Invariant monitors: each one watches a class of impossible states.

A monitor consumes the simulation's trace-record stream (dispatched by
:class:`~repro.verify.sanitizer.Sanitizer`) plus synthesized matching-queue
events, and appends a :class:`Violation` for every invariant breach it
observes.  A monitor declares the record kinds it reads in
:attr:`InvariantMonitor.kinds`, and the sanitizer calls its
:meth:`~InvariantMonitor.on_record` only for those; one that declares
none (``None``, the default) gets every record.  ``on_record`` itself
still ignores any other kind, so feeding it the whole stream gives the
same result.  End-of-run structural checks live in :meth:`finalize`; checks
that only hold once all traffic has drained (nothing in flight, every
request waited) run only when the caller declares the run *quiescent*.

Violations are plain frozen dataclasses of primitives, so they survive a
trip through a :mod:`multiprocessing` pool unchanged — the parallel sweep
executor ships them back from checked workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

#: Trace-record kinds counted as intentional packet removals; duplicates
#: observed after any of these are recovery retransmissions (go-back-N),
#: not corruption.
_DROP_KINDS = ("wire_drop", "fault_drop")


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach.

    Attributes
    ----------
    monitor:
        Name of the monitor that raised it (``"conservation"``, …).
    kind:
        Short machine-matchable tag (``"packet_duplicated"``, …).
    time:
        Simulation time of the observation (end-of-run time for
        finalize-stage checks).
    detail:
        Human-readable context.
    """

    monitor: str
    kind: str
    time: float
    detail: str


class InvariantMonitor:
    """Base class: violation bookkeeping + the two hook points."""

    name = "invariant"
    #: Record kinds :meth:`on_record` acts on; ``None`` reads every kind.
    kinds: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def flag(self, time: float, kind: str, detail: str = "") -> None:
        """Record one violation."""
        self.violations.append(Violation(self.name, kind, time, detail))

    # ------------------------------------------------------------------ hooks
    def on_record(self, rec) -> None:
        """Consume one :class:`~repro.sim.trace.TraceRecord`."""

    def finalize(self, world: Any, quiescent: bool) -> None:
        """Structural end-of-run checks against ``world``'s device state."""


def _devices(world: Any) -> List[Any]:
    """The world's transport devices, rank order."""
    return [ep.device for ep in world.endpoints]


class ConservationMonitor(InvariantMonitor):
    """Message conservation: no request vanishes, no packet duplicates.

    * Every posted request is eventually completed or cancelled (checked
      at quiescent finalize — mid-run worlds legitimately stop with
      requests in flight).
    * No DATA packet is delivered to a NIC twice — unless a drop has been
      observed on the run, in which case duplicates are go-back-N recovery
      retransmissions and are excused.
    * Every DATA packet transmitted is eventually delivered (quiescent
      finalize).  This catches silent truncation: GM has no reliability
      layer, so a vanished middle fragment still lets the transport
      "complete" the message.
    """

    name = "conservation"
    kinds = frozenset(
        ("req_post", "req_complete", "q_remove", "packet_tx", "nic_rx")
        + _DROP_KINDS
    )

    def __init__(self) -> None:
        super().__init__()
        self._pending: Dict[int, str] = {}
        self._completed: Set[int] = set()
        self._seen_pkts: Set[Tuple[str, int, int]] = set()
        self._tx_pkts: Dict[int, Set[int]] = {}
        self._rx_pkts: Dict[int, Set[int]] = {}
        self._drops = 0

    def on_record(self, rec) -> None:
        kind = rec.kind
        if kind == "req_post":
            req_id, rkind, peer, tag, nbytes = rec.detail
            self._pending[req_id] = (
                f"{rkind} peer={peer} tag={tag} {nbytes}B posted at {rec.time:.9f}"
            )
        elif kind == "req_complete":
            req_id = rec.detail[0]
            self._pending.pop(req_id, None)
            self._completed.add(req_id)
        elif kind == "q_remove":
            # MPI_Cancel withdrew the receive: conservation is satisfied.
            self._pending.pop(rec.detail.req_id, None)
        elif kind == "packet_tx":
            pkind, msg_id, index = rec.detail
            if pkind == "data":
                self._tx_pkts.setdefault(msg_id, set()).add(index)
        elif kind == "nic_rx":
            pkind, msg_id, index = rec.detail
            if pkind != "data":
                return
            self._rx_pkts.setdefault(msg_id, set()).add(index)
            key = (rec.source, msg_id, index)
            if key in self._seen_pkts:
                if self._drops == 0:
                    self.flag(
                        rec.time, "packet_duplicated",
                        f"{rec.source} received msg {msg_id} packet {index} twice",
                    )
            else:
                self._seen_pkts.add(key)
        elif kind in _DROP_KINDS:
            self._drops += 1

    def finalize(self, world: Any, quiescent: bool) -> None:
        if not quiescent:
            return
        now = world.engine.now
        for req_id, info in sorted(self._pending.items()):
            self.flag(now, "request_never_completed", f"request #{req_id}: {info}")
        for msg_id, txed in sorted(self._tx_pkts.items()):
            missing = txed - self._rx_pkts.get(msg_id, set())
            if missing:
                self.flag(
                    now, "packet_lost",
                    f"msg {msg_id}: packet(s) {sorted(missing)} transmitted "
                    "but never delivered",
                )


class CausalityMonitor(InvariantMonitor):
    """Timestamps are monotone; nothing is scheduled in the past.

    Reads every record (no declared kinds): the per-source time order
    holds across all of them.
    """

    name = "causality"

    def __init__(self) -> None:
        super().__init__()
        self._last_by_source: Dict[str, float] = {}

    def on_record(self, rec) -> None:
        if rec.kind == "schedule_past":
            self.flag(
                rec.time, "scheduled_in_past",
                f"callback enqueued {-rec.detail[0]:.3g}s before now",
            )
            return
        last = self._last_by_source.get(rec.source)
        if last is not None and rec.time < last:
            self.flag(
                rec.time, "time_regression",
                f"{rec.source}: record at {rec.time:.9f} after one at {last:.9f}",
            )
        self._last_by_source[rec.source] = rec.time

    def on_kernel_regression(self, when: float, last: float) -> None:
        """Called by the sanitizer's tracer when the engine clock steps
        backwards between processed events."""
        self.flag(
            when, "clock_backwards",
            f"engine clock moved {last:.9f} -> {when:.9f}",
        )


class TokenMonitor(InvariantMonitor):
    """GM eager-token (bounce-buffer credit) accounting.

    Live: a per-destination token count must stay within ``[0, initial]``.
    Quiescent: for every sender→receiver pair, available tokens plus every
    legitimate resting place of a credit must equal the initial allotment —
    credits are conserved, never minted or leaked.  Resting places: the
    receiver's unreturned batch counter, eager payloads still buffered on
    the receiver (unexpected queue, admission pipeline, un-drained CQ),
    and token returns parked in the sender's own CQ (GM is library-polled,
    so the final ACK of a run is never drained).
    """

    name = "tokens"
    kinds = frozenset(("gm_tokens",))

    def on_record(self, rec) -> None:
        if rec.kind != "gm_tokens":
            return
        dest_node, count, initial = rec.detail
        if count < 0:
            self.flag(
                rec.time, "negative_tokens",
                f"{rec.source}: {count} tokens for node {dest_node}",
            )
        elif count > initial:
            self.flag(
                rec.time, "token_overflow",
                f"{rec.source}: {count} tokens for node {dest_node} "
                f"(allotment {initial})",
            )

    def finalize(self, world: Any, quiescent: bool) -> None:
        from ..transport.gm import EagerArrival, GmDevice

        if not quiescent:
            return
        now = world.engine.now
        devs = _devices(world)
        by_node = {dev.node.node_id: dev for dev in devs}
        for dev in devs:
            if not isinstance(dev, GmDevice):
                continue
            initial = dev.params.eager_tokens
            my_node = dev.node.node_id
            for dest_node, count in sorted(dev._eager_tokens.items()):
                receiver = by_node.get(dest_node)
                pending = held = 0
                if isinstance(receiver, GmDevice):
                    pending = receiver._tokens_to_return.get(my_node, 0)
                    buffered = list(receiver.unexpected.snapshot())
                    buffered.extend(receiver._admitted)
                    buffered.extend(
                        e[1] for e in receiver.cq if e[0] == "eager_arrived"
                    )
                    held = sum(
                        1
                        for r in buffered
                        if isinstance(r, EagerArrival)
                        and receiver.node_of(r.envelope.src_rank) == my_node
                    )
                # Token returns that arrived after the sender's last poll.
                parked = sum(
                    e[2] for e in dev.cq
                    if e[0] == "tokens" and e[1] == dest_node
                )
                total = count + pending + held + parked
                if total != initial:
                    self.flag(
                        now, "token_leak",
                        f"rank{dev.rank}->node{dest_node}: {count} available "
                        f"+ {pending} unreturned + {held} held + {parked} "
                        f"parked = {total}, allotment {initial}",
                    )
            for dest_node, backlog in sorted(dev._eager_backlog.items()):
                if backlog:
                    self.flag(
                        now, "stuck_backlog",
                        f"rank{dev.rank}: {len(backlog)} eager send(s) to "
                        f"node {dest_node} still waiting for tokens",
                    )


class MatchingMonitor(InvariantMonitor):
    """Matching-list invariants (posted/unexpected queues, Portals lists).

    Live: no receive is posted twice, nothing matches out of thin air, a
    completed request never matches, no unexpected record is added twice,
    and no Portals GET is issued without a preceding RTS.  Quiescent: all
    matching state has drained — no stashed out-of-order arrivals, no
    half-assembled messages, no unanswered rendezvous handshakes.
    """

    name = "matching"
    kinds = frozenset((
        "q_post", "q_match", "q_remove", "q_unex_add", "q_unex_match",
        "rts_rx", "get_issued",
    ))

    def __init__(self) -> None:
        super().__init__()
        self._posted: Set[Tuple[str, int]] = set()
        self._unexpected: Set[Tuple[str, int]] = set()
        self._rts_seen: Set[Tuple[str, int]] = set()

    def on_record(self, rec) -> None:
        kind = rec.kind
        if kind == "q_post":
            key = (rec.source, rec.detail.req_id)
            if key in self._posted:
                self.flag(
                    rec.time, "double_post",
                    f"{rec.source}: request #{rec.detail.req_id} posted twice",
                )
            self._posted.add(key)
        elif kind == "q_match":
            req = rec.detail
            key = (rec.source, req.req_id)
            if key not in self._posted:
                self.flag(
                    rec.time, "match_without_post",
                    f"{rec.source}: request #{req.req_id} matched but never posted",
                )
            self._posted.discard(key)
            if req.done:
                self.flag(
                    rec.time, "matched_completed_request",
                    f"{rec.source}: request #{req.req_id} was already complete",
                )
        elif kind == "q_remove":
            self._posted.discard((rec.source, rec.detail.req_id))
        elif kind == "q_unex_add":
            key = (rec.source, rec.detail.msg_id)
            if key in self._unexpected:
                self.flag(
                    rec.time, "duplicate_unexpected",
                    f"{rec.source}: message {rec.detail.msg_id} added twice",
                )
            self._unexpected.add(key)
        elif kind == "q_unex_match":
            key = (rec.source, rec.detail.msg_id)
            if key not in self._unexpected:
                self.flag(
                    rec.time, "unexpected_match_without_add",
                    f"{rec.source}: message {rec.detail.msg_id} never arrived",
                )
            self._unexpected.discard(key)
        elif kind == "rts_rx":
            self._rts_seen.add((rec.source, rec.detail[0]))
        elif kind == "get_issued":
            if (rec.source, rec.detail[0]) not in self._rts_seen:
                self.flag(
                    rec.time, "get_without_rts",
                    f"{rec.source}: GET for message {rec.detail[0]} "
                    "without a matching RTS",
                )

    def finalize(self, world: Any, quiescent: bool) -> None:
        if not quiescent:
            return
        now = world.engine.now
        for dev in _devices(world):
            tag = f"rank{dev.rank}"
            admission = getattr(dev, "admission", None)
            if admission is not None and admission.stashed:
                self.flag(
                    now, "admission_stash_leak",
                    f"{tag}: {admission.stashed} arrival(s) stashed forever "
                    "(missing predecessor)",
                )
            for attr in ("posted", "k_posted"):
                q = getattr(dev, attr, None)
                if q is not None and len(q):
                    self.flag(
                        now, "posted_receive_leak",
                        f"{tag}: {len(q)} receive(s) still posted",
                    )
            for attr in ("unexpected", "k_unexpected"):
                q = getattr(dev, attr, None)
                if q is not None and len(q):
                    self.flag(
                        now, "unconsumed_unexpected",
                        f"{tag}: {len(q)} unexpected message(s) never received",
                    )
            asm = getattr(dev, "_asm", None)
            if asm:
                self.flag(
                    now, "incomplete_assembly",
                    f"{tag}: message(s) {sorted(asm)} half-assembled",
                )
            for attr in ("_pending_cts", "_pending_get"):
                pend = getattr(dev, attr, None)
                if pend:
                    self.flag(
                        now, "unanswered_rts",
                        f"{tag}: rendezvous message(s) {sorted(pend)} "
                        "never answered",
                    )


class LifecycleMonitor(InvariantMonitor):
    """``MPI_Request`` lifecycle state machine.

    Legal: posted → (matched →) complete, or posted → cancelled.  Flags
    completion of unknown/cancelled/already-complete requests and — the
    corruption class of a spurious completion — a receive that completes
    while still sitting in a posted queue.
    """

    name = "lifecycle"
    kinds = frozenset(
        ("req_post", "q_post", "q_match", "q_remove", "req_complete")
    )

    _POSTED = "posted"
    _MATCHED = "matched"
    _CANCELLED = "cancelled"
    _COMPLETE = "complete"

    def __init__(self) -> None:
        super().__init__()
        self._state: Dict[int, str] = {}
        self._in_posted_q: Set[int] = set()

    def on_record(self, rec) -> None:
        kind = rec.kind
        if kind == "req_post":
            self._state[rec.detail[0]] = self._POSTED
        elif kind == "q_post":
            self._in_posted_q.add(rec.detail.req_id)
        elif kind == "q_match":
            req_id = rec.detail.req_id
            self._in_posted_q.discard(req_id)
            self._state[req_id] = self._MATCHED
        elif kind == "q_remove":
            req_id = rec.detail.req_id
            self._in_posted_q.discard(req_id)
            self._state[req_id] = self._CANCELLED
        elif kind == "req_complete":
            req_id = rec.detail[0]
            state = self._state.get(req_id)
            if state is None:
                self.flag(
                    rec.time, "complete_without_post",
                    f"request #{req_id} completed but was never posted",
                )
            elif state == self._COMPLETE:
                self.flag(
                    rec.time, "double_completion",
                    f"request #{req_id} completed twice",
                )
            elif state == self._CANCELLED:
                self.flag(
                    rec.time, "completed_after_cancel",
                    f"request #{req_id} completed after MPI_Cancel",
                )
            if req_id in self._in_posted_q:
                self.flag(
                    rec.time, "completed_while_posted",
                    f"request #{req_id} completed while still in a posted "
                    "queue (never matched)",
                )
            self._state[req_id] = self._COMPLETE


def default_monitors() -> List[InvariantMonitor]:
    """Fresh instances of every built-in monitor."""
    return [
        ConservationMonitor(),
        CausalityMonitor(),
        TokenMonitor(),
        MatchingMonitor(),
        LifecycleMonitor(),
    ]
