"""What-if systems: hypothetical stacks for the design-choice ablations.

These exercise the simulator beyond the paper's two measured systems:

* :func:`coalesced_portals` — Portals with NIC interrupt mitigation;
* :func:`offload_nic_system` — an idealized NIC that performs matching
  and delivery with *no* host interrupts
  (:class:`~repro.transport.offload.OffloadNicDevice`): full application
  offload *and* GM-class CPU availability.

A custom transport plugs in the same way: name its device class in
``SystemConfig.device`` and build the world with
:func:`repro.mpi.world.build_world`.
"""

from __future__ import annotations

import dataclasses

from ..config import SystemConfig, portals_system
from ..sim.units import usec


def coalesced_portals(window_s: float = usec(40)) -> SystemConfig:
    """Portals with interrupt coalescing (ablation for design decision 1)."""
    base = portals_system()
    machine = dataclasses.replace(
        base.machine,
        irq=dataclasses.replace(base.machine.irq, coalesce_window_s=window_s),
    )
    return dataclasses.replace(base, name="Portals+coalesce", machine=machine)


def offload_nic_system() -> SystemConfig:
    """Parameters for the idealized offload NIC (cheap traps, no copies).

    The device rides in the config, so the standard ``run_polling`` /
    ``run_pww`` drivers (and pool workers) build it directly.
    """
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
