"""EMP-like system: zero-copy OS-bypass NIC-driven Gigabit Ethernet.

The paper's related work (§5, ref [10]) notes COMB was used by Shivam,
Wyckoff & Panda to assess **EMP** — a message-passing system running
entirely on programmable Alteon NICs over Gigabit Ethernet: zero-copy,
OS-bypass *and* NIC-driven protocol processing, i.e. full application
offload without host interrupts.

This preset models that class of system so COMB can be pointed at it:

* Gigabit Ethernet wire (125 MB/s signalling, 1500-byte frames — many
  more packets per message than Myrinet's 4 KB pages);
* NIC-resident protocol engine: matching, reassembly and retransmission
  on the NIC (no kernel, no interrupts), but with a per-frame NIC
  processing cost that is the system's real bottleneck;
* cheap user-level posts (descriptor writes, like GM) with completion
  flags raised by the NIC (offloaded, like Portals).

Mechanically it runs :class:`~repro.transport.offload.EmpDevice`
(NIC-driven Portals semantics) over an Ethernet-parameterized machine.
"""

from __future__ import annotations

import dataclasses

from ..config import (
    MachineConfig,
    NicConfig,
    PortalsParams,
    SystemConfig,
    portals_system,
)
from ..sim.units import mbps, usec


def emp_system(**overrides) -> SystemConfig:
    """The EMP-on-Gigabit-Ethernet preset (``EMP``)."""
    base = portals_system()
    nic = NicConfig(
        mtu_bytes=1500,
        header_bytes=58,                 # Ethernet+IP-ish framing EMP used
        wire_bandwidth_Bps=mbps(125),    # 1 Gb/s
        wire_latency_s=usec(1.0),
        host_dma_bandwidth_Bps=mbps(91),  # same PCI generation
        dma_setup_s=usec(1.0),
        nic_processing_s=usec(0.7),
    )
    machine = dataclasses.replace(base.machine, nic=nic)
    params = dataclasses.replace(
        base.portals,
        isend_trap_s=usec(6.0),      # user-level descriptor write
        irecv_trap_s=usec(6.0),
        progress_poll_s=usec(0.3),
        tx_window_pkts=24,           # small frames need a deeper window
        ack_every=8,
        rndv_threshold_bytes=1 << 62,  # EMP pushes; NIC-side flow control
        rto_s=usec(3000),
    )
    system = dataclasses.replace(
        base, name="EMP", machine=machine, portals=params,
        device="repro.transport.offload:EmpDevice",
    )
    return system.replaced(**overrides) if overrides else system
