"""Machine and system configuration presets.

Every physical constant of the simulated platform lives here, in SI units
(seconds, bytes, bytes/second, hertz).  The presets model the paper's
testbed (§3): 500 MHz Pentium III nodes, Myrinet LANai 7.2 NICs, an 8-port
SAN/LAN switch, and two software stacks:

* :data:`GM` — Myricom GM 1.4 + MPICH/GM 1.2..4 (OS-bypass, user-level,
  no interrupts, library-polled progress, eager/rendezvous split at 16 KB);
* :data:`PORTALS` — kernel-based Portals 3.0 + MPICH/Portals
  (interrupt-driven, kernel buffering and copies, application offload).

Beside them sit a sockets/TCP preset for the netperf baseline and three
what-if presets beyond the paper (:data:`EXT_PRESETS`): EMP-class Gigabit
Ethernet, an idealized offload NIC, and Portals with interrupt coalescing.

Absolute values are calibrated so the simulated COMB plateaus land near the
paper's (GM ≈ 85–90 MB/s, Portals ≈ 50–55 MB/s, knees near 10^5–10^6 loop
iterations); see EXPERIMENTS.md for the calibration record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from .sim.units import kib, mbps, mhz, usec


class ProgressModel(Enum):
    """How outstanding MPI communication makes progress.

    ``LIBRARY_POLLED``
        Protocol state advances only inside MPI library calls (MPICH/GM and
        most OS-bypass stacks of the era).  Violates the MPI Progress Rule;
        detected by COMB's PWW method.
    ``OFFLOADED``
        The kernel or NIC advances the protocol independently of the
        application (Portals 3.0 semantics) — *application offload*.
    """

    LIBRARY_POLLED = "library_polled"
    OFFLOADED = "offloaded"


@dataclass(frozen=True)
class CpuConfig:
    """Host processor model (500 MHz Pentium III by default)."""

    #: Core clock frequency.
    freq_hz: float = mhz(500)
    #: Cost of one iteration of COMB's empty calibration loop, in cycles.
    #: (An unoptimized ``for(j...) /* nothing */`` loop on a P6 core.)
    cycles_per_work_iter: float = 2.0
    #: Round-robin quantum when several user processes share the CPU
    #: (Linux 2.2 default timeslice ballpark).
    timeslice_s: float = 10e-3

    @property
    def work_iter_s(self) -> float:
        """Seconds of CPU time per calibration-loop iteration."""
        return self.cycles_per_work_iter / self.freq_hz


@dataclass(frozen=True)
class NicConfig:
    """Myrinet LANai 7.2 NIC + PCI host interface model."""

    #: Maximum transfer unit used to packetize messages (GM's 4 KB pages).
    mtu_bytes: int = 4096
    #: Per-packet header/trailer on the wire.
    header_bytes: int = 16
    #: Link signalling rate (Myrinet 1.28 Gb/s per direction).
    wire_bandwidth_Bps: float = mbps(160)
    #: Wire propagation + NIC forwarding latency per hop.
    wire_latency_s: float = usec(0.5)
    #: Host I/O bus (32-bit/33 MHz PCI) sustained DMA rate.  Shared between
    #: transmit and receive DMA on a node; this, not the wire, bounds the
    #: aggregate MPI bandwidth of the era's Myrinet systems.
    host_dma_bandwidth_Bps: float = mbps(91)
    #: Fixed DMA descriptor setup per packet.
    dma_setup_s: float = usec(1.0)
    #: LANai processing per packet (MCP dispatch).
    nic_processing_s: float = usec(0.7)


@dataclass(frozen=True)
class SwitchConfig:
    """Myrinet 8-port SAN/LAN switch model."""

    ports: int = 8
    #: Cut-through forwarding latency per packet.
    latency_s: float = usec(0.3)


@dataclass(frozen=True)
class InterruptConfig:
    """Interrupt delivery costs (Linux 2.2 on a PIII)."""

    #: Trap entry: pipeline flush, vector dispatch, register save.
    entry_s: float = usec(2.0)
    #: Return from interrupt + cache/TLB pollution charged to the app.
    exit_s: float = usec(2.0)
    #: If > 0, interrupts raised within this window of a running handler
    #: are coalesced (single entry/exit).  0 disables coalescing.
    coalesce_window_s: float = 0.0


@dataclass(frozen=True)
class GmParams:
    """MPICH/GM protocol constants (§4.2 of the paper).

    GM is OS-bypass: the NIC moves data with no interrupts; all protocol
    progress happens inside MPI library calls (``ProgressModel.LIBRARY_POLLED``).
    """

    #: Eager/rendezvous switch point ("messages less than about 16 KB").
    eager_threshold_bytes: int = kib(16)
    #: Host CPU cost of a non-blocking *eager* send ("about 45 microseconds
    #: per message") — includes the copy into a registered send buffer.
    eager_isend_s: float = usec(45.0)
    #: Host CPU cost of a non-blocking *rendezvous* send ("about 5
    #: microseconds"): just builds an RTS descriptor.
    rndv_isend_s: float = usec(5.0)
    #: Host CPU cost of posting a non-blocking receive.
    irecv_s: float = usec(3.0)
    #: One pass of the library progress loop (poll NIC completion queue).
    progress_poll_s: float = usec(0.4)
    #: Library handling per completed incoming message (match + bookkeeping).
    match_s: float = usec(1.5)
    #: Library cost to emit a control packet (CTS) during progress.
    ctrl_send_s: float = usec(2.0)
    #: Copy rate from the eager bounce buffer to the user buffer (cached,
    #: user-space memcpy).
    eager_copy_bandwidth_Bps: float = mbps(220)
    #: Receiver-side eager bounce buffers per peer (MPICH/GM's token flow
    #: control): at most this many eager messages may be in flight or
    #: sitting unconsumed; further eager sends queue in the library until
    #: tokens return.
    eager_tokens: int = 16
    #: Tokens returned per control packet (batched piggyback).
    eager_token_batch: int = 4


@dataclass(frozen=True)
class PortalsParams:
    """Kernel-based Portals 3.0 constants (§3: interrupts + kernel copies).

    All data motion is driven by the kernel (``ProgressModel.OFFLOADED``):
    posting traps into the kernel; every arriving packet interrupts the host;
    the handler runs reliability/flow control and copies payloads from
    kernel buffers into user space.
    """

    #: Trap + kernel descriptor setup for ``MPI_Isend`` (the paper's Fig 10
    #: shows Portals post times far above GM's).
    isend_trap_s: float = usec(55.0)
    #: Trap + kernel match-list insert for ``MPI_Irecv``.
    irecv_trap_s: float = usec(40.0)
    #: Cheap user-space completion-flag check (no trap needed).
    progress_poll_s: float = usec(0.3)
    #: Kernel handler work per received packet, *excluding* the copy:
    #: driver + reliability/flow-control module + Portals processing.
    rx_handler_s: float = usec(26.0)
    #: Kernel→user copy rate (uncached kernel buffers on a PIII).
    rx_copy_bandwidth_Bps: float = mbps(95)
    #: Kernel work per transmitted packet (driver + reliability window).
    tx_kernel_s: float = usec(24.0)
    #: Kernel handling of an arriving acknowledgment packet (interrupt body).
    ack_handler_s: float = usec(8.0)
    #: Data packets acknowledged per ACK (go-back-N window cadence).
    ack_every: int = 2
    #: Portals matching cost on the first packet of a message.
    match_s: float = usec(4.0)
    #: Kernel handler body for control packets (RTS headers, GET requests).
    ctrl_handler_s: float = usec(10.0)
    #: Messages at least this large use the kernel-driven get protocol:
    #: the sender publishes a header (RTS); the *receiver's kernel* pulls
    #: the data once a matching receive exists.  Unexpected long messages
    #: therefore buffer only a header — no kernel-to-user double copy —
    #: while remaining fully application-offloaded.
    rndv_threshold_bytes: int = kib(16)
    #: Go-back-N window: unacknowledged data packets allowed per peer.
    #: Small windows leave ack-round-trip gaps in the receiver's interrupt
    #: stream — the slivers of CPU the application sees at full message
    #: rate (the paper's ~0.1 availability plateau, Figs 4/15).
    tx_window_pkts: int = 3
    #: Retransmission timeout for unacknowledged packets.
    rto_s: float = usec(2000)
    #: Duplicate acks that trigger a fast retransmission of the window.
    dup_ack_threshold: int = 2


@dataclass(frozen=True)
class TcpParams:
    """A simple sockets/TCP-like stack used by the netperf baseline.

    Interrupt-driven like Portals (same field meanings), with heavier
    syscall and per-packet costs.  The API *blocks and yields the CPU*
    while waiting (select semantics) — the behaviour netperf assumes; the
    blocking choice is made at the MPI layer.
    """

    isend_trap_s: float = usec(30.0)
    irecv_trap_s: float = usec(20.0)
    progress_poll_s: float = usec(0.3)
    rx_handler_s: float = usec(45.0)
    rx_copy_bandwidth_Bps: float = mbps(95)
    tx_kernel_s: float = usec(30.0)
    ack_every: int = 2
    ack_handler_s: float = usec(8.0)
    match_s: float = usec(2.0)
    ctrl_handler_s: float = usec(12.0)
    #: TCP streams have no rendezvous: always push (threshold unreachable).
    rndv_threshold_bytes: int = 1 << 62
    tx_window_pkts: int = 8
    rto_s: float = usec(4000)
    dup_ack_threshold: int = 2


class TransportKind(Enum):
    """Which transport stack a system preset uses."""

    GM = "gm"
    PORTALS = "portals"
    TCP = "tcp"


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection for the wire (exercises the reliability layer).

    Loss applies to DATA packets only: the model assumes control packets
    (headers, GETs, acks) ride the kernel module's tiny protected channel.
    """

    #: Independent drop probability per DATA packet on each switch link.
    data_loss_rate: float = 0.0


@dataclass(frozen=True)
class MachineConfig:
    """Everything below the transport: CPU, NIC, switch, interrupts."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    nic: NicConfig = field(default_factory=NicConfig)
    switch: SwitchConfig = field(default_factory=SwitchConfig)
    irq: InterruptConfig = field(default_factory=InterruptConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated platform: machine + transport + MPI behaviour."""

    name: str
    machine: MachineConfig = field(default_factory=MachineConfig)
    transport: TransportKind = TransportKind.GM
    progress: ProgressModel = ProgressModel.LIBRARY_POLLED
    gm: GmParams = field(default_factory=GmParams)
    portals: PortalsParams = field(default_factory=PortalsParams)
    tcp: TcpParams = field(default_factory=TcpParams)
    #: Device class as ``"module:Class"``; empty means the stock device
    #: for ``transport``.  Part of the config, so it reaches pool workers
    #: and cache keys; ``name`` is only a label.
    device: str = ""
    #: Root seed for all stochastic sub-models (jitter, loss injection).
    seed: int = 0
    #: Number of CPUs per node (1 in the paper; >1 builds SMP nodes, whose
    #: polling points report per-CPU availability: §7 future work).
    cpus_per_node: int = 1

    def replaced(self, **changes) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)


def gm_system(**overrides) -> SystemConfig:
    """The GM 1.4 + MPICH/GM preset (OS-bypass, no application offload)."""
    cfg = SystemConfig(
        name="GM",
        transport=TransportKind.GM,
        progress=ProgressModel.LIBRARY_POLLED,
    )
    return cfg.replaced(**overrides) if overrides else cfg


def portals_system(**overrides) -> SystemConfig:
    """The kernel Portals 3.0 + MPICH preset (application offload)."""
    cfg = SystemConfig(
        name="Portals",
        transport=TransportKind.PORTALS,
        progress=ProgressModel.OFFLOADED,
    )
    return cfg.replaced(**overrides) if overrides else cfg


def tcp_system(**overrides) -> SystemConfig:
    """A sockets/TCP-style preset used by the netperf baseline."""
    cfg = SystemConfig(
        name="TCP",
        transport=TransportKind.TCP,
        progress=ProgressModel.OFFLOADED,
    )
    return cfg.replaced(**overrides) if overrides else cfg


def emp_system(**overrides) -> SystemConfig:
    """An EMP-class system (paper §5, ref [10]): zero-copy, OS-bypass,
    NIC-driven message passing on programmable Gigabit Ethernet NICs.

    Matching, reassembly and retransmission run on the NIC (no kernel, no
    interrupts) at a per-frame NIC cost; posts are cheap descriptor
    writes, and 1500-byte frames mean many more packets per message than
    Myrinet's 4 KB pages.
    """
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


def offload_nic_system() -> SystemConfig:
    """An idealized offload NIC: Portals semantics with matching and
    delivery on the NIC, no host interrupts, cheap traps, no copies."""
    base = portals_system()
    portals = dataclasses.replace(
        base.portals,
        isend_trap_s=usec(4.0),
        irecv_trap_s=usec(4.0),
        tx_window_pkts=8,
    )
    return dataclasses.replace(
        base, name="OffloadNIC", portals=portals,
        device="repro.transport.offload:OffloadNicDevice",
    )


def coalesced_portals(window_s: float = usec(40)) -> SystemConfig:
    """Portals with NIC interrupt coalescing over ``window_s``."""
    base = portals_system()
    machine = dataclasses.replace(
        base.machine,
        irq=dataclasses.replace(base.machine.irq, coalesce_window_s=window_s),
    )
    return dataclasses.replace(base, name="Portals+coalesce", machine=machine)


#: Ready-made presets, keyed by their paper names.
PRESETS: Dict[str, Callable[..., SystemConfig]] = {
    "GM": gm_system,
    "Portals": portals_system,
    "TCP": tcp_system,
}


#: What-if presets beyond the paper, by name.
EXT_PRESETS: Dict[str, Callable[..., SystemConfig]] = {
    "EMP": emp_system,
    "OffloadNIC": offload_nic_system,
    "Portals+coalesce": coalesced_portals,
}


def preset_names() -> List[str]:
    """Every name :func:`get_system` resolves: the paper's presets, then
    the what-if presets."""
    return sorted(PRESETS) + sorted(EXT_PRESETS)


def get_system(name: str, **overrides) -> SystemConfig:
    """Look up a preset or what-if preset by (case-insensitive) name."""
    for key, factory in (*PRESETS.items(), *EXT_PRESETS.items()):
        if key.lower() == name.lower():
            system = factory()
            return system.replaced(**overrides) if overrides else system
    raise KeyError(f"unknown system preset {name!r}; have {preset_names()}")
