"""The COMB Polling Method (paper §2.1, Figs 1–2).

Two processes on two nodes exchange a queue of messages ping-pong style.
The *worker* interleaves fixed work intervals with completion polls: after
every ``poll_interval`` loop iterations it tests its outstanding receives;
each completed message is answered immediately (reply sent, receive
re-posted).  The *support* process only does message passing, answering as
fast as messages arrive.  Because the worker never blocks, the method
reports an unfettered trade-off between bandwidth and CPU availability as
the poll interval varies.

``PollingConfig.peers`` generalizes the support side to a fan-in: ``N``
support ranks (one per extra node) all stream at the single worker, which
keeps one queue per peer.  ``peers=1`` is the paper's two-node method.

On an SMP worker node (``SystemConfig.cpus_per_node > 1``, the paper's §7
future work) every extra CPU runs a pure compute load, and the point
reports each CPU's availability: interrupts land on CPU 0, so the
uniprocessor figure describes only that processor.

Simulation note: runs of *empty* poll cycles (work + negative test) are
deterministic, so they are aggregated (:func:`_absorb_empty_cycles`) into a
single CPU occupation that ends — rounded up to the cycle boundary — when
the device signals activity.
This is exact with respect to the method's semantics (a completion is
always discovered at a poll boundary) and keeps event counts proportional
to message traffic rather than poll frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from ..config import SystemConfig
from ..mpi.request import Request
from ..mpi.world import World, build_world
from ..sim.process import Process
from ..sim.units import msec
from .accounting import tally_events
from .results import PollingPoint
from .workloop import work_time

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.cpu import CPU, CpuContext
    from ..transport.base import TransportDevice

#: Message tag used by the benchmark streams.
COMB_TAG = 11


@dataclass
class PollingConfig:
    """Parameters of one polling-method measurement."""

    #: Message payload size.
    msg_bytes: int = 100 * 1024
    #: Work-loop iterations between completion polls (the method's primary
    #: variable; the paper sweeps 10^1 … 10^8).
    poll_interval_iters: int = 10_000
    #: Messages kept in flight per direction (the paper's message queue;
    #: depth 1 degenerates to a plain ping-pong test).
    queue_depth: int = 4
    #: Minimum simulated warmup before the measurement window opens.
    warmup_s: float = msec(5)
    #: Minimum length of the measurement window.
    measure_s: float = msec(30)
    #: The window is stretched so it spans at least this many poll cycles
    #: (matters when the poll interval exceeds ``measure_s``).
    min_cycles: int = 6
    #: Support ranks feeding the worker (fan-in); 1 is the paper's
    #: two-node method.  The crossbar's port count caps ``peers + 1``.
    peers: int = 1


class _WorkerState:
    """Mutable measurement bookkeeping shared with the driver."""

    def __init__(self) -> None:
        self.result: Optional[PollingPoint] = None


def run_polling(system: SystemConfig, cfg: PollingConfig) -> PollingPoint:
    """Run one polling-method point on a fresh world and return it."""
    if cfg.poll_interval_iters <= 0:
        raise ValueError("poll interval must be positive")
    if cfg.queue_depth < 1:
        raise ValueError("queue depth must be >= 1")
    if cfg.peers < 1:
        raise ValueError("need at least one peer")
    ports = system.machine.switch.ports
    if cfg.peers + 1 > ports:
        raise ValueError(
            f"{cfg.peers} peers + worker exceed the {ports}-port switch"
        )
    world = build_world(system, n_nodes=cfg.peers + 1)
    engine = world.engine
    state = _WorkerState()
    worker = engine.spawn(_worker(world, cfg, state),
                          name="comb.polling.worker")
    for peer in range(1, cfg.peers + 1):
        engine.spawn(_support(world, cfg, peer), name="comb.polling.support")
    loads = [
        engine.spawn(_load(world, worker, cpu), name="comb.polling.load")
        for cpu in range(1, system.cpus_per_node)
    ]
    engine.run(worker)
    # Each load finishes its current chunk, then returns its CPU's figure.
    per_cpu = [engine.run(load) for load in loads]
    tally_events(engine.events_processed)
    point = state.result
    assert point is not None
    if per_cpu:
        point.availability_per_cpu = [point.availability] + per_cpu
    return point


def _worker(
    world: World, cfg: PollingConfig, state: _WorkerState
) -> Iterator[object]:
    engine = world.engine
    system = world.system
    node = world.cluster[0]
    ctx = node.new_context("comb.worker")
    h = world.endpoint(0).bind(ctx)
    dev = h.device
    cpu = ctx.cpu

    # Tracer seam (observability): hoisted so the detached path pays one
    # ``is None`` check per poll and nothing else.
    trace = engine.trace

    iter_s = system.machine.cpu.work_iter_s
    p_iters = cfg.poll_interval_iters
    work_s = p_iters * iter_s
    # A negative test costs one (empty) progress pass.
    empty_poll_s = _empty_poll_cost(system)
    cycle_s = work_s + empty_poll_s

    # ------------------------------------------------------------- pipeline
    # One flat request list in peer-major order: slot ``i`` belongs to
    # support rank ``1 + i // depth``.
    depth = cfg.queue_depth
    recv_reqs: List[Request] = []
    for peer in range(1, cfg.peers + 1):
        for _ in range(depth):
            r = yield from h.irecv(src=peer, nbytes=cfg.msg_bytes,
                                   tag=COMB_TAG)
            recv_reqs.append(r)
        for _ in range(depth):
            yield from h.isend(peer, cfg.msg_bytes, tag=COMB_TAG)

    # ----------------------------------------------------------- main loop
    iters_done = 0.0
    polls = 0
    measuring = False
    t_start_s = 0.0
    iters_start = 0.0
    polls_start = 0
    stats_start = None
    irq_start = 0
    warmup_end = engine.now + max(cfg.warmup_s, 3 * cycle_s)
    t_end_s = float("inf")

    while True:
        # One work interval then a completion test (Fig 1's inner loop +
        # poll).  Runs of empty cycles are aggregated below.
        yield ctx.compute(work_s)
        iters_done += p_iters
        done_idx = yield from h.testsome(recv_reqs)
        polls += 1
        if trace is not None:
            # Schema: (completions,) — 0 is a miss, > 0 a hit.
            trace.record(engine.now, "rank0.polling", "poll", (len(done_idx),))
        if done_idx:
            for i in done_idx:
                # Answer each arrived message and replace the receive.
                peer = 1 + i // depth
                yield from h.isend(peer, cfg.msg_bytes, tag=COMB_TAG)
                recv_reqs[i] = yield from h.irecv(
                    src=peer, nbytes=cfg.msg_bytes, tag=COMB_TAG
                )
        elif not dev.has_work() and not any(r.done for r in recv_reqs):
            # Nothing to do until the device signals: spin through whole
            # empty poll cycles, then land exactly on a cycle boundary.
            # A horizon bounds the spin at the warmup/measurement edge so a
            # fully stalled pipeline cannot overshoot the window.
            horizon_at = t_end_s if measuring else warmup_end
            cycles = yield from _absorb_empty_cycles(
                cpu, ctx, dev, cycle_s, horizon_at
            )
            if cycles:
                iters_done += cycles * p_iters
                polls += cycles
                if trace is not None:
                    # Schema: (empty_cycles,) — an aggregated run of
                    # misses ending at the cycle boundary just computed.
                    trace.record(engine.now, "rank0.polling", "poll_empty",
                                 (cycles,))

        # ------------------------------------------------- window control
        now = engine.now
        if not measuring:
            if now >= warmup_end:
                measuring = True
                t_start_s = now
                iters_start = iters_done
                polls_start = polls
                stats_start = dev.stats.snapshot()
                irq_start = node.irq.count
                t_end_s = t_start_s + max(cfg.measure_s, cfg.min_cycles * cycle_s)
        elif now >= t_end_s:
            break

    elapsed_s = engine.now - t_start_s
    iters = iters_done - iters_start
    if trace is not None:
        # Schema: (t_start_s, elapsed_s, work_total_s, polls, empty_poll_s)
        # — the measurement window in one record, so attribution can
        # decompose availability loss without re-deriving the window.
        trace.record(engine.now, "rank0.polling", "poll_window",
                     (t_start_s, elapsed_s, work_time(system, iters),
                      polls - polls_start, empty_poll_s))
    delta = dev.stats.delta(stats_start)
    payload = delta.bytes_send_done + delta.bytes_recv_done
    state.result = PollingPoint(
        system=system.name,
        msg_bytes=cfg.msg_bytes,
        poll_interval_iters=p_iters,
        availability=work_time(system, iters) / elapsed_s,
        bandwidth_Bps=payload / elapsed_s,
        elapsed_s=elapsed_s,
        iters=iters,
        polls=polls - polls_start,
        msgs=delta.msgs_send_done + delta.msgs_recv_done,
        interrupts=node.irq.count - irq_start,
    )


def _absorb_empty_cycles(
    cpu: "CPU",
    ctx: "CpuContext",
    dev: "TransportDevice",
    cycle_s: float,
    horizon_at: float,
) -> Iterator[object]:
    """Spin ``ctx`` through whole empty poll cycles until the device
    signals activity or ``horizon_at`` is reached, then land exactly on a
    poll-cycle boundary.  Returns the number of cycles absorbed (>= 1 when
    any spinning happened, 0 if the horizon had already passed).

    A cycle is ``work + negative test``; a completion is always discovered
    at a poll boundary, so rounding the spun time *up* to the next boundary
    is exact with respect to the polling method's semantics.  The horizon
    bounds the spin at the warmup/measurement edge so a fully stalled
    pipeline cannot overshoot the window.
    """
    engine = cpu.engine
    remaining = horizon_at - engine.now
    if remaining <= 0:
        return 0
    wake = dev.wakeup()
    stop_ev = engine.any_of([wake, engine.timeout(remaining)])
    u0 = cpu.context_time(ctx)
    yield cpu.spin_until(ctx, stop_ev)
    spun = cpu.context_time(ctx) - u0
    cycles = math.floor(spun / cycle_s) + 1
    remainder = cycles * cycle_s - spun
    if remainder > 0:
        yield ctx.compute(remainder)
    return cycles


def _support(
    world: World, cfg: PollingConfig, rank: int = 1
) -> Iterator[object]:
    """A support process: pure message passing, replies immediately."""
    ctx = world.cluster[rank].new_context("comb.support")
    h = world.endpoint(rank).bind(ctx)
    recv_reqs: List[Request] = []
    for _ in range(cfg.queue_depth):
        r = yield from h.irecv(src=0, nbytes=cfg.msg_bytes, tag=COMB_TAG)
        recv_reqs.append(r)
    for _ in range(cfg.queue_depth):
        yield from h.isend(0, cfg.msg_bytes, tag=COMB_TAG)
    while True:
        yield from h.waitany(recv_reqs)
        for i, r in enumerate(recv_reqs):
            if r.done:
                yield from h.isend(0, cfg.msg_bytes, tag=COMB_TAG)
                recv_reqs[i] = yield from h.irecv(
                    src=0, nbytes=cfg.msg_bytes, tag=COMB_TAG
                )


def _load(world: World, worker: Process, cpu: int) -> Iterator[object]:
    """An SMP compute load on CPU ``cpu`` of the worker's node: work in
    100,000-iteration chunks until the worker is done, then return the
    fraction of the elapsed time that work got."""
    engine = world.engine
    ctx = world.cluster[0].new_context(f"comb.load{cpu}", cpu_index=cpu)
    iter_s = world.system.machine.cpu.work_iter_s
    chunk = 100_000
    iters = 0
    t0 = engine.now
    while not worker.triggered:
        yield ctx.compute(chunk * iter_s)
        iters += chunk
    return (iters * iter_s) / (engine.now - t0)


def _empty_poll_cost(system: SystemConfig) -> float:
    """Cost of a negative MPI_Test (one empty progress pass)."""
    from ..config import TransportKind

    if system.transport is TransportKind.GM:
        return system.gm.progress_poll_s
    if system.transport is TransportKind.PORTALS:
        return system.portals.progress_poll_s
    return system.tcp.progress_poll_s
