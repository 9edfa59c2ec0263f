"""World builder: hardware + transports + MPI endpoints, ready to run.

The builder is also where a world's observation is wired.  The engine's
``trace`` is the simulator's only tracer handle: every emitter (engine,
NICs, links, transports, MPI requests, the COMB drivers) reads
``engine.trace`` and records nothing when it is ``None``.  Ambient
attachments — a sanitizer (:func:`repro.verify.use_sanitizer`) and an
observer (:func:`repro.obs.use_observer`) — each contribute a tracer to
that handle, fanned out by a :class:`~repro.sim.trace.MultiTracer` when
both are ambient.  The matching-queue events (``q_*``) are not engine
records: :data:`WATCHED_QUEUES` names the device queues that emit them,
and one hook per queue hands each event to every attachment, sanitizer
first, through its ``record_queue`` method.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..config import SystemConfig, TransportKind
from ..hardware.cluster import Cluster
from ..sim.engine import Engine
from ..sim.trace import Tracer
from ..transport.base import Device
from ..transport.gm import GmDevice
from ..transport.portals import PortalsDevice, TcpDevice
from .api import Endpoint

_DEVICE_CLASSES = {
    TransportKind.GM: GmDevice,
    TransportKind.PORTALS: PortalsDevice,
    TransportKind.TCP: TcpDevice,
}

#: Device matching queues that emit ``q_*`` events, with each queue's kind
#: prefix: posted receives emit ``q_<op>``, unexpected arrivals
#: ``q_unex_<op>``.  The event's source is ``rank{r}.{attr}``.
WATCHED_QUEUES: Tuple[Tuple[str, str], ...] = (
    ("posted", "q_"),
    ("k_posted", "q_"),
    ("unexpected", "q_unex_"),
    ("k_unexpected", "q_unex_"),
)


def make_device(engine: Engine, node, rank: int, system: SystemConfig) -> Device:
    """Instantiate ``system``'s device: the ``system.device`` class when
    set, else the stock device for ``system.transport``."""
    if not system.device:
        return _DEVICE_CLASSES[system.transport](engine, node, rank, system)
    module, _, name = system.device.partition(":")
    if not name:
        raise ValueError(f"device {system.device!r} is not 'module:Class'")
    cls = getattr(importlib.import_module(module), name)
    return cls(engine, node, rank, system)


@dataclass
class World:
    """A built simulation: engine, hardware, and one endpoint per node."""

    engine: Engine
    system: SystemConfig
    cluster: Cluster
    endpoints: List[Endpoint]

    def endpoint(self, rank: int) -> Endpoint:
        """The endpoint for ``rank``."""
        return self.endpoints[rank]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.endpoints)


def build_world(
    system: SystemConfig,
    n_nodes: int = 2,
    tracer: Optional[Tracer] = None,
    topology=None,
) -> World:
    """Build a fresh deterministic world: rank *i* lives on node *i*.

    ``topology`` selects the network fabric (a
    :class:`~repro.hardware.topology.Topology`; ``None`` is the paper's
    crossbar switch, bit-identical to the seed two-node wiring).

    ``tracer`` becomes the engine's ``trace``.  If none is given, the
    ambient sanitizer and/or observer are attached as the module
    docstring describes, sanitizer first.
    """
    attachments: list = []
    if tracer is None:
        from ..obs.context import current_observer
        from ..verify.context import current_sanitizer

        for ambient in (current_sanitizer(), current_observer()):
            if ambient is not None:
                attachments.append(ambient)
        if len(attachments) == 1:
            tracer = attachments[0].tracer
        elif attachments:
            from ..sim.trace import MultiTracer

            tracer = MultiTracer([a.tracer for a in attachments])
    engine = Engine(trace=tracer)
    cluster = Cluster(engine, system, n_nodes=n_nodes, topology=topology)
    devices = [
        make_device(engine, cluster[i], i, system) for i in range(n_nodes)
    ]
    routes = {rank: rank for rank in range(n_nodes)}
    for dev in devices:
        dev.routes = dict(routes)
    endpoints = [
        Endpoint(engine, dev, rank, n_nodes) for rank, dev in enumerate(devices)
    ]
    world = World(engine, system, cluster, endpoints)
    for dev in devices if attachments else ():
        for attr, prefix in WATCHED_QUEUES:
            queue = getattr(dev, attr, None)
            if queue is not None:
                queue.observer = _queue_hook(
                    engine, f"rank{dev.rank}.{attr}", prefix, attachments)
    for ambient in attachments:
        ambient.install(world)
    return world


def _queue_hook(engine: Engine, source: str, prefix: str,
                attachments: Sequence[Any]) -> Callable[[str, Any], None]:
    """A queue's observer: each event goes to every attachment's
    ``record_queue(time, source, kind, handle)``, in attachment order."""

    def hook(op: str, handle: Any) -> None:
        kind = prefix + op
        for attachment in attachments:
            attachment.record_queue(engine.now, source, kind, handle)

    return hook
