"""Classic ping-pong latency/bandwidth microbenchmark.

This is the style of measurement COMB's introduction criticizes: it
captures latency and peak bandwidth but says nothing about how much CPU the
application keeps, or whether communication progresses during computation.
Included both as a baseline and as a calibration aid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from ..config import SystemConfig
from ..core.accounting import tally_events
from ..mpi.world import build_world
from ..sim.units import to_mbps


@dataclass(frozen=True)
class PingPongConfig:
    """Parameters of one ping-pong measurement."""

    #: Message payload size.
    msg_bytes: int
    #: Timed exchanges; the latency is their mean half round trip.
    repeats: int = 20
    #: Untimed exchanges before the first timed one.
    warmup_msgs: int = 3


@dataclass
class PingPongResult:
    """Ping-pong outcome for one message size."""

    system: str
    msg_bytes: int
    #: Half round-trip time (the usual "latency" number).
    latency_s: float
    #: One-way goodput: msg_bytes / half-RTT.
    bandwidth_Bps: float
    repeats: int
    #: Replication summary; see :class:`~repro.core.PollingPoint.replication`.
    replication: Optional[Dict[str, Any]] = None

    @property
    def bandwidth_MBps(self) -> float:
        """Bandwidth in MB/s."""
        return to_mbps(self.bandwidth_Bps)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON export)."""
        d = asdict(self)
        if d.get("replication") is None:
            d.pop("replication", None)
        d["bandwidth_MBps"] = self.bandwidth_MBps
        return d


def run_pingpong(
    system: SystemConfig, cfg: PingPongConfig, topology=None
) -> PingPongResult:
    """Measure mean half-RTT over ``cfg.repeats`` exchanges (after
    ``cfg.warmup_msgs``).

    ``topology`` selects the fabric (``None``: the paper's crossbar
    switch) — the differential tests use an explicit two-node topology
    to pin it bit-identical against the default wiring.
    """
    if cfg.repeats < 1 or cfg.warmup_msgs < 0:
        raise ValueError("repeats >= 1 and warmup_msgs >= 0 required")
    msg_bytes, repeats, warmup_msgs = (
        cfg.msg_bytes, cfg.repeats, cfg.warmup_msgs)
    world = build_world(system, topology=topology)
    engine = world.engine
    ctx0 = world.cluster[0].new_context("pingpong.initiator")
    ctx1 = world.cluster[1].new_context("pingpong.echo")
    h0 = world.endpoint(0).bind(ctx0)
    h1 = world.endpoint(1).bind(ctx1)
    out = {}

    def initiator():
        for _ in range(warmup_msgs):
            yield from h0.send(1, msg_bytes, tag=1)
            yield from h0.recv(1, msg_bytes, tag=2)
        t0 = engine.now
        for _ in range(repeats):
            yield from h0.send(1, msg_bytes, tag=1)
            yield from h0.recv(1, msg_bytes, tag=2)
        out["rtt"] = (engine.now - t0) / repeats

    def echo():
        for _ in range(warmup_msgs + repeats):
            yield from h1.recv(0, msg_bytes, tag=1)
            yield from h1.send(0, msg_bytes, tag=2)

    proc = engine.spawn(initiator(), name="pingpong.initiator")
    engine.spawn(echo(), name="pingpong.echo")
    engine.run(proc)
    tally_events(engine.events_processed)
    half = out["rtt"] / 2
    return PingPongResult(
        system=system.name,
        msg_bytes=msg_bytes,
        latency_s=half,
        bandwidth_Bps=(msg_bytes / half) if half > 0 else 0.0,
        repeats=repeats,
    )
