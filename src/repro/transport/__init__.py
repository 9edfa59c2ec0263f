"""Transport devices: GM (OS-bypass), Portals (kernel, offloaded), TCP,
and the NIC-driven offload/EMP devices the what-if presets select.

Device classes are imported lazily: the hardware layer imports
``repro.transport.packets`` at module load, and eager imports here would
close an import cycle (hardware → packets → __init__ → base → hardware).
"""

from .packets import (
    Envelope,
    Packet,
    PacketKind,
    control_packet,
    next_msg_id,
    packetize,
)

__all__ = [
    "Device",
    "DeviceStats",
    "EmpDevice",
    "Envelope",
    "GmDevice",
    "OffloadNicDevice",
    "Packet",
    "PacketKind",
    "PortalsDevice",
    "TX_WINDOW_PKTS",
    "TcpDevice",
    "control_packet",
    "next_msg_id",
    "packetize",
]

_LAZY = {
    "Device": ".base",
    "DeviceStats": ".base",
    "EmpDevice": ".offload",
    "GmDevice": ".gm",
    "OffloadNicDevice": ".offload",
    "PortalsDevice": ".portals",
    "TcpDevice": ".portals",
    "TX_WINDOW_PKTS": ".portals",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
