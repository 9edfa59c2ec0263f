#!/usr/bin/env python3
"""Plugging a custom transport into COMB.

Defines a hypothetical "per-message interrupt" Portals variant — the NIC
coalesces a whole message and raises a single interrupt for it — and runs
the unmodified COMB polling method against stock Portals.  The system
names its device class in ``SystemConfig.device`` (``"module:Class"``),
so every world built for it, in this process or a pool worker, uses that
device.  This is the extension point the suite offers for evaluating new
NIC/driver designs before building them.

Usage::

    python examples/custom_transport.py
"""

import dataclasses

from repro import PollingConfig, portals_system
from repro.core.polling import run_polling
from repro.hardware.memory import copy_time
from repro.transport.packets import PacketKind
from repro.transport.portals import PortalsDevice

KB = 1024


class MessageInterruptDevice(PortalsDevice):
    """Portals mechanics, but one interrupt per *message*, not per packet.

    The NIC reassembles packets on board; the host handler then pays the
    per-message work plus one bulk copy.  This is the interrupt-mitigation
    strategy several 2001-era gigabit drivers adopted.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._env_cache = {}

    def nic_rx(self, pkt) -> None:
        p = self.params
        if pkt.kind is PacketKind.DATA:
            if pkt.is_first and pkt.envelope is not None:
                # NIC notes the envelope; no host involvement yet.
                self._env_cache[pkt.msg_id] = pkt.envelope
            # A coalescing NIC runs the reliability check itself (no host
            # CPU for in-order fragments) and acknowledges cumulatively.
            decision = self._gbn_accept(pkt)
            if decision.send_ack:
                self._send_gbn_ack(pkt.src, decision.cum)
            if not decision.deliver:
                return
            # Only the final fragment interrupts the host.
            if pkt.is_last:
                nbytes = (pkt.index * self.system.machine.nic.mtu_bytes
                          + pkt.payload_bytes)
                cost = (p.rx_handler_s + p.match_s
                        + copy_time(nbytes, p.rx_copy_bandwidth_Bps))
                self.node.irq.raise_irq(
                    cost, fn=lambda: self._commit_whole(pkt), label="msg_rx"
                )
            return
        super().nic_rx(pkt)

    def _commit_whole(self, pkt) -> None:
        # Recreate the per-packet delivery effects in one shot; acks were
        # already generated NIC-side as fragments arrived.
        env = self._env_cache.pop(pkt.msg_id, None)
        if env is not None and "long" not in pkt.meta:
            pkt.envelope = env
            pkt.is_first = True
        self._rx_deliver(pkt)


def main() -> None:
    base = portals_system()
    custom = dataclasses.replace(
        base, name="Portals/msg-irq",
        device=f"{__name__}:MessageInterruptDevice",
    )

    cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                        measure_s=0.05)
    print(f"{'system':16s} {'bandwidth':>12s} {'availability':>13s} "
          f"{'interrupts':>11s}")
    for system in (base, custom):
        pt = run_polling(system, cfg)
        print(f"{system.name:16s} {pt.bandwidth_MBps:9.2f} MB/s "
              f"{pt.availability:13.3f} {pt.interrupts:11d}")

    print()
    print("One interrupt per message instead of per 4 KB packet slashes the")
    print("worker-side interrupt count; COMB quantifies how much CPU that")
    print("returns to the application at the same poll interval.")


if __name__ == "__main__":
    main()
