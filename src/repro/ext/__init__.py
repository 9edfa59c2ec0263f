"""Extensions beyond the paper: SMP nodes (§7) and what-if systems.

The what-if presets select their devices (defined in
:mod:`repro.transport.offload`) through ``SystemConfig.device``.
"""

from .emp import emp_system
from .smp import SmpAvailability, run_smp_polling, smp_system
from .whatif import coalesced_portals, offload_nic_system

__all__ = [
    "SmpAvailability",
    "coalesced_portals",
    "emp_system",
    "offload_nic_system",
    "run_smp_polling",
    "smp_system",
]
