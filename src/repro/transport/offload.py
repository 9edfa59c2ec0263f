"""NIC-driven Portals devices: protocol processing with no host interrupts.

* :class:`OffloadNicDevice` — an idealized NIC that performs matching and
  delivery itself (the direction Quadrics/Elan and later RDMA NICs took):
  full application offload *and* GM-class CPU availability;
* :class:`EmpDevice` — the same engine with EMP's Alteon firmware cost
  per 1500-byte frame (paper §5, ref [10]).

Systems select them through ``SystemConfig.device`` (see
:func:`repro.config.offload_nic_system` and :func:`repro.config.emp_system`).
"""

from __future__ import annotations

from typing import Optional

from ..sim.events import Event
from ..sim.units import usec
from .packets import Packet, PacketKind
from .portals import PortalsDevice


class OffloadNicDevice(PortalsDevice):
    """An idealized offload NIC: kernel-Portals semantics, zero interrupts.

    Matching, reassembly and delivery run on the NIC; received data is
    DMA'd straight to user buffers (the host-bus transfer is already paid
    in the NIC receive path), so the host CPU is never involved in data
    motion.  Posting still traps (cheaply) to pin buffers.
    """

    #: NIC-side processing latency per data packet (no host CPU).
    NIC_RX_LATENCY_S = usec(1.0)

    def nic_rx(self, pkt: Packet) -> None:
        if pkt.kind is PacketKind.DATA:
            self.engine.schedule_callback(
                self.NIC_RX_LATENCY_S, lambda p=pkt: self._rx_commit(p)
            )
        elif pkt.kind is PacketKind.RTS:
            self.engine.schedule_callback(
                self.NIC_RX_LATENCY_S, lambda p=pkt: self._rts_commit(p)
            )
        elif pkt.kind is PacketKind.CTS:
            self.engine.schedule_callback(
                self.NIC_RX_LATENCY_S, lambda p=pkt: self._get_commit(p)
            )
        elif pkt.kind is PacketKind.ACK:
            self.engine.schedule_callback(
                self.NIC_RX_LATENCY_S,
                lambda p=pkt: self._on_ack(p.src, p.meta["cum"]),
            )

    def _tx_admit(self, pkt: Packet) -> Optional[Event]:
        """NIC-side transmit: no kernel work per packet."""
        return None


class EmpDevice(OffloadNicDevice):
    """Alteon-class NIC engine: firmware processing per 1500-byte frame."""

    #: Firmware dispatch per received frame (the Alteon's MIPS cores were
    #: the published EMP bottleneck at small frames).
    NIC_RX_LATENCY_S = usec(3.0)
