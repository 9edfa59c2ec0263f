"""A compute node: CPU(s) + interrupt controller + NIC."""

from __future__ import annotations

from typing import List

from ..config import SystemConfig
from ..os.interrupts import InterruptController
from ..sim.engine import Engine
from .cpu import CPU, CpuContext
from .nic import NIC


class Node:
    """One cluster node of the simulated platform.

    The paper's testbed has a single CPU per node; ``cpus_per_node > 1``
    builds an SMP node (the paper's §7 future work; the polling method
    then measures every CPU).  Interrupts are routed to CPU 0, as on the
    era's uniprocessor-interrupt Linux.
    """

    def __init__(self, engine: Engine, system: SystemConfig, node_id: int):
        if system.cpus_per_node < 1:
            raise ValueError(
                f"cpus_per_node must be >= 1, got {system.cpus_per_node}"
            )
        self.engine = engine
        self.system = system
        self.node_id = node_id
        self.cpus: List[CPU] = [
            CPU(engine, system.machine.cpu, name=f"node{node_id}.cpu{i}")
            for i in range(system.cpus_per_node)
        ]
        self.irq = InterruptController(
            self.cpus[0], system.machine.irq, name=f"node{node_id}.irq"
        )
        self.nic = NIC(
            engine, system.machine.nic, node_id, name=f"node{node_id}.nic"
        )
        #: The transport instance bound to this node (set by the builder).
        self.transport = None

    @property
    def cpu(self) -> CPU:
        """The boot CPU (interrupt target)."""
        return self.cpus[0]

    def new_context(self, name: str = "", cpu_index: int = 0) -> CpuContext:
        """Create a user execution context on one of this node's CPUs."""
        return self.cpus[cpu_index].new_context(
            name or f"node{self.node_id}.proc"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} ({self.system.name})>"
