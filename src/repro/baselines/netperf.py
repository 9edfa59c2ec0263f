"""netperf-style CPU-availability measurement (paper §5).

netperf times a delay loop on a quiescent node, then times the same loop
while a *separate process on the same node* drives communication, and
reports the ratio as processor availability.  The paper identifies two
problems when this approach is applied to MPI:

1. MPI environments assume one process per node, so availability should be
   measured *within* the MPI task, not beside it;
2. netperf assumes the communication process *relinquishes the CPU* while
   waiting (a ``select`` call).  OS-bypass MPI implementations busy-wait
   instead, so the communication process soaks up its whole timeslice and
   the delay loop sees ≈ 50% of the CPU regardless of the actual
   communication overhead.

``run_netperf`` reproduces the scheme faithfully — two user processes
sharing one CPU round-robin — with both waiting styles, so the distortion
is directly observable (see ``examples/netperf_pitfall.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from ..config import SystemConfig
from ..core.accounting import tally_events
from ..mpi.world import build_world
from ..sim.units import to_mbps

#: Delay-loop iterations per measured repetition.  100 ms of work at the
#: default 4 ns/iteration — long enough to span many scheduler quanta, so
#: a busy-waiting co-located process actually shares the CPU.
DELAY_ITERS = 25_000_000


@dataclass(frozen=True)
class NetperfConfig:
    """Parameters of one netperf-style measurement."""

    #: Message payload size of each echoed exchange.
    msg_bytes: int = 100 * 1024
    #: "blocking" (select semantics) or "busywait" (MPI semantics).
    wait_mode: str = "blocking"
    #: Delay-loop iterations per measured phase (dry, then loaded).
    delay_iters: int = DELAY_ITERS


@dataclass
class NetperfResult:
    """Outcome of one netperf-style run."""

    system: str
    msg_bytes: int
    #: "blocking" (select semantics) or "busywait" (MPI semantics).
    wait_mode: str
    #: Delay-loop time on the quiescent node.
    dry_s: float
    #: Delay-loop time while the co-located process communicates.
    loaded_s: float
    #: Communication goodput achieved meanwhile (both directions).
    bandwidth_Bps: float
    #: Replication summary; see :class:`~repro.core.PollingPoint.replication`.
    replication: Optional[Dict[str, Any]] = None

    @property
    def availability(self) -> float:
        """netperf's availability figure: dry / loaded."""
        return self.dry_s / self.loaded_s

    @property
    def bandwidth_MBps(self) -> float:
        """Bandwidth in MB/s."""
        return to_mbps(self.bandwidth_Bps)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON export)."""
        d = asdict(self)
        if d.get("replication") is None:
            d.pop("replication", None)
        d["availability"] = self.availability
        d["bandwidth_MBps"] = self.bandwidth_MBps
        return d


def run_netperf(system: SystemConfig, cfg: NetperfConfig) -> NetperfResult:
    """Run the two-process netperf scheme on node 0.

    ``cfg.wait_mode='blocking'`` yields the CPU while waiting (netperf's
    assumption); ``'busywait'`` spins in the MPI wait, as OS-bypass MPI
    implementations do.
    """
    if cfg.wait_mode not in ("blocking", "busywait"):
        raise ValueError("wait_mode must be 'blocking' or 'busywait'")
    msg_bytes, wait_mode, delay_iters = (
        cfg.msg_bytes, cfg.wait_mode, cfg.delay_iters)
    world = build_world(system)
    engine = world.engine
    node0 = world.cluster[0]
    iter_s = system.machine.cpu.work_iter_s

    delay_ctx = node0.new_context("netperf.delay")
    comm_ctx = node0.new_context("netperf.comm")
    remote_ctx = world.cluster[1].new_context("netperf.echo")
    h_comm = world.endpoint(0).bind(comm_ctx)
    h_remote = world.endpoint(1).bind(remote_ctx)

    out = {}
    comm_on = engine.event()
    done = {"stop": False}

    def delay_loop():
        # Quiescent measurement first (the other process is idle).
        t0 = engine.now
        yield delay_ctx.compute(delay_iters * iter_s)
        out["dry"] = engine.now - t0
        comm_on.succeed()
        stats0 = h_comm.device.stats.snapshot()
        t1 = engine.now
        yield delay_ctx.compute(delay_iters * iter_s)
        out["loaded"] = engine.now - t1
        delta = h_comm.device.stats.delta(stats0)
        out["bytes"] = delta.bytes_send_done + delta.bytes_recv_done
        done["stop"] = True

    def comm_proc():
        yield comm_on
        while not done["stop"]:
            rreq = yield from h_comm.irecv(src=1, nbytes=msg_bytes, tag=5)
            sreq = yield from h_comm.isend(1, msg_bytes, tag=5)
            if wait_mode == "blocking":
                yield from h_comm.wait_blocking([rreq, sreq])
            else:
                yield from h_comm.waitall([rreq, sreq])

    def echo_proc():
        while not done["stop"]:
            rreq = yield from h_remote.irecv(src=0, nbytes=msg_bytes, tag=5)
            sreq = yield from h_remote.isend(0, msg_bytes, tag=5)
            yield from h_remote.waitall([rreq, sreq])

    proc = engine.spawn(delay_loop(), name="netperf.delay")
    engine.spawn(comm_proc(), name="netperf.comm")
    engine.spawn(echo_proc(), name="netperf.echo")
    engine.run(proc)
    tally_events(engine.events_processed)
    return NetperfResult(
        system=system.name,
        msg_bytes=msg_bytes,
        wait_mode=wait_mode,
        dry_s=out["dry"],
        loaded_s=out["loaded"],
        bandwidth_Bps=out["bytes"] / out["loaded"],
    )
