"""Deterministic fault injection: corrupt a run on purpose.

A :class:`FaultInjector` wraps a built world's delivery/interrupt/transmit
seams with tampering shims.  Every stochastic choice draws from a named
substream of :class:`~repro.sim.rng.RngRegistry` keyed on the plan's
single ``seed``, so a given (world, plan) pair injects *exactly* the same
faults on every run — a failing sanitizer report reproduces from its seed
alone (see CONTRIBUTING.md, "Testing & verification").

Fault classes and the monitor each one is designed to trip:

==========================  ============================================
``drop_data``               conservation (``request_never_completed``)
``duplicate_data``          conservation (``packet_duplicated``)
``timewarp``                causality (``scheduled_in_past`` /
                            ``clock_backwards``)
``drop_ack``                tokens (``token_leak``, GM credit returns)
``duplicate_ack``           tokens (``token_overflow``)
``nic_stall_node``          conservation (sender side never drains)
``defer_irq_node``          matching (``unanswered_rts``) — Portals
                            kernel handlers silently lost
``spurious_completion_at``  lifecycle (``completed_while_posted``)
==========================  ============================================

Injection happens *after* the wire (at NIC delivery), so the network
model's own accounting stays truthful; each injected fault also emits a
``fault_*`` trace record for debugging and so the conservation monitor
can distinguish injected drops from corruption-free runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.events import PRIORITY_NORMAL, Event
from ..sim.rng import RngRegistry
from ..transport.packets import Packet, PacketKind


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject.

    Rates are per-eligible-packet probabilities in ``[0, 1]``; a rate of
    ``1.0`` with ``max_per_class=1`` deterministically corrupts the first
    eligible packet.  All randomness derives from ``seed``.
    """

    seed: int = 0
    #: Drop an inbound DATA packet at NIC delivery.
    drop_data: float = 0.0
    #: Deliver an inbound *middle* DATA packet twice (first/last packets
    #: carry protocol framing whose duplication the transports reject
    #: outright rather than mis-process).
    duplicate_data: float = 0.0
    #: Drop an inbound ACK (GM: an eager-token return vanishes).
    drop_ack: float = 0.0
    #: Deliver an inbound ACK twice (GM: eager tokens minted from thin air).
    duplicate_ack: float = 0.0
    #: Re-schedule an inbound DATA packet's delivery *in the past*.
    timewarp: float = 0.0
    #: How far in the past a time-warped delivery lands.
    timewarp_s: float = 1e-6
    #: Cap on injections per fault class (``None``: unlimited).
    max_per_class: Optional[int] = None
    #: Swallow this node's NIC transmit jobs ...
    nic_stall_node: Optional[int] = None
    #: ... after this many successful submissions.
    nic_stall_after: int = 0
    #: Silently lose raised interrupts on this node (kernel handler never
    #: runs — a wedged interrupt line).
    defer_irq_node: Optional[int] = None
    #: Only lose handlers whose label starts with this (\"\": all).
    defer_irq_label: str = ""
    #: Probability of losing each eligible interrupt.
    defer_irq_rate: float = 1.0
    #: At this simulation time, mark one still-posted receive complete
    #: without any matching message (a lost-update corruption).
    spurious_completion_at: Optional[float] = None


class FaultInjector:
    """Installs a :class:`FaultPlan`'s tampering shims on one world."""

    def __init__(self, world: Any, plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self.rng = RngRegistry(plan.seed)
        #: Injections performed, per fault class.
        self.injected: "Counter[str]" = Counter()
        self._installed = False

    # ------------------------------------------------------------- install
    def install(self) -> "FaultInjector":
        """Wrap the world's seams; idempotent, returns self."""
        if self._installed:
            return self
        self._installed = True
        plan = self.plan
        cluster = self.world.cluster
        if any((plan.drop_data, plan.duplicate_data, plan.drop_ack,
                plan.duplicate_ack, plan.timewarp)):
            for node in cluster.nodes:
                link = cluster.switch.out_link(node.node_id)
                link.deliver = self._tamper_delivery(link.deliver)
        if plan.nic_stall_node is not None:
            self._stall_nic(cluster[plan.nic_stall_node].nic)
        if plan.defer_irq_node is not None:
            self._defer_irq(cluster[plan.defer_irq_node].irq)
        if plan.spurious_completion_at is not None:
            delay_s = max(0.0, plan.spurious_completion_at - self.world.engine.now)
            self.world.engine.schedule_callback(delay_s, self._spurious_complete)
        return self

    # ------------------------------------------------------------ internals
    def _roll(self, name: str, rate: float) -> bool:
        """Decide one injection from the class's named substream."""
        if rate <= 0.0:
            return False
        cap = self.plan.max_per_class
        if cap is not None and self.injected[name] >= cap:
            return False
        return bool(self.rng.stream(f"fault.{name}").random() < rate)

    def _note(self, name: str, pkt: Optional[Packet] = None) -> None:
        self.injected[name] += 1
        trace = self.world.engine.trace
        if trace is not None:
            detail = (
                (pkt.kind.value, pkt.msg_id, pkt.index) if pkt is not None else ()
            )
            trace.record(
                self.world.engine.now, "fault", f"fault_{name}", detail
            )

    def _tamper_delivery(
        self, deliver: Callable[[Packet], None]
    ) -> Callable[[Packet], None]:
        plan = self.plan

        def tampered(pkt: Packet) -> None:
            if pkt.kind is PacketKind.DATA:
                if self._roll("drop", plan.drop_data):
                    self._note("drop", pkt)
                    return
                if (not pkt.is_first and not pkt.is_last
                        and self._roll("dup", plan.duplicate_data)):
                    self._note("dup", pkt)
                    deliver(pkt)
                    deliver(pkt)
                    return
                if self._roll("timewarp", plan.timewarp):
                    self._note("timewarp", pkt)
                    self._deliver_in_past(deliver, pkt)
                    return
            elif pkt.kind is PacketKind.ACK:
                if self._roll("drop_ack", plan.drop_ack):
                    self._note("drop_ack", pkt)
                    return
                if self._roll("dup_ack", plan.duplicate_ack):
                    self._note("dup_ack", pkt)
                    deliver(pkt)
                    deliver(pkt)
                    return
            deliver(pkt)

        return tampered

    def _deliver_in_past(
        self, deliver: Callable[[Packet], None], pkt: Packet
    ) -> None:
        """Schedule delivery *before* now — the corruption a sanitized
        engine must catch (``scheduled_in_past`` + ``clock_backwards``)."""
        engine = self.world.engine
        ev = Event(engine)
        ev._ok = True
        ev._value = pkt
        ev.callbacks.append(lambda e: deliver(e.value))
        engine._enqueue(ev, PRIORITY_NORMAL, -abs(self.plan.timewarp_s))

    def _stall_nic(self, nic: Any) -> None:
        submit = nic.submit
        allowed = self.plan.nic_stall_after
        seen = [0]

        def stalled(job: Any) -> None:
            if seen[0] >= allowed:
                # Stalled: the job is accepted and silently never serviced.
                self._note("nic_stall")
                return
            seen[0] += 1
            submit(job)

        nic.submit = stalled

    def _defer_irq(self, irq: Any) -> None:
        raise_irq = irq.raise_irq
        plan = self.plan

        def deferred(
            handler_cost_s: float,
            fn: Optional[Callable[[], None]] = None,
            label: str = "",
        ) -> Event:
            eligible = (not plan.defer_irq_label
                        or label.startswith(plan.defer_irq_label))
            if eligible and self._roll("defer_irq", plan.defer_irq_rate):
                self._note("defer_irq")
                return Event(self.world.engine)  # never fires: handler lost
            return raise_irq(handler_cost_s, fn, label)

        irq.raise_irq = deferred

    def _spurious_complete(self, retries: int = 64) -> None:
        """Complete one still-posted receive that never matched anything.

        If no receive is posted at the scheduled instant, re-checks a
        bounded number of times (the posted queue is transiently empty
        between exchanges) rather than silently injecting nothing.
        """
        candidates = []
        for ep in self.world.endpoints:
            for attr in ("posted", "k_posted"):
                q = getattr(ep.device, attr, None)
                if q is not None:
                    candidates.extend(h for _s, _t, h in q.snapshot())
        if not candidates:
            if retries > 0:
                self.world.engine.schedule_callback(
                    abs(self.plan.timewarp_s),
                    lambda: self._spurious_complete(retries - 1),
                )
            return
        pick = int(self.rng.stream("fault.spurious").integers(len(candidates)))
        self._note("spurious_completion")
        candidates[pick].complete()
