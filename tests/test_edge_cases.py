"""Edge-case and semantics-documentation tests across the stack."""

import dataclasses

import pytest

from repro.config import FaultConfig, gm_system, portals_system
from repro.mpi import build_world
from repro.obs import ObsTracer
from repro.sim import Engine, SimulationError

KB = 1024


class TestBarrierEdge:
    def test_barrier_spans_n_ranks(self, gm):
        # Formerly pinned NotImplementedError for world_size != 2; the
        # handle now delegates to the dissemination barrier, so a 3-rank
        # barrier completes once every rank arrives.
        world = build_world(gm, n_nodes=3)
        engine = world.engine
        done = []

        def proc(rank):
            h = world.endpoint(rank).bind(
                world.cluster[rank].new_context(f"b{rank}")
            )
            yield from h.barrier()
            done.append(rank)

        procs = [engine.spawn(proc(r)) for r in range(3)]
        engine.run(engine.all_of(procs))
        assert sorted(done) == [0, 1, 2]


class TestGmOverLossyWire:
    def test_gm_assumes_reliable_fabric(self, gm):
        """GM (like real Myrinet GM) has no retransmission: a lossy wire
        strands the transfer, which the simulator surfaces as a deadlock
        rather than silently conjuring the data."""
        lossy = dataclasses.replace(
            gm, machine=dataclasses.replace(
                gm.machine, fault=FaultConfig(data_loss_rate=0.5)
            ),
        )
        world = build_world(lossy)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.recv(1, 200 * KB, tag=1)

        def rank1():
            yield from h1.send(0, 200 * KB, tag=1)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run(p0)


class TestTracing:
    def test_wire_events_recorded(self, gm):
        tracer = ObsTracer()
        world = build_world(gm, tracer=tracer)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.send(1, 10 * KB, tag=1)

        def rank1():
            yield from h1.recv(0, 10 * KB, tag=1)

        p0 = engine.spawn(rank0())
        p1 = engine.spawn(rank1())
        engine.run(engine.all_of([p0, p1]))
        tx = tracer.of_kind("packet_tx")
        rx = tracer.of_kind("wire_rx")
        assert len(tx) >= 3  # 10 KB = 3 MTU fragments
        assert len(rx) >= 3
        # Chronological order within each stream.
        times = [r.time_s for r in rx]
        assert times == sorted(times)

    def test_drop_events_recorded(self):
        tracer = ObsTracer()
        lossy = dataclasses.replace(
            portals_system(), machine=dataclasses.replace(
                portals_system().machine,
                fault=FaultConfig(data_loss_rate=0.2),
            ),
        )
        world = build_world(lossy, tracer=tracer)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.recv(1, 100 * KB, tag=1)

        def rank1():
            yield from h1.send(0, 100 * KB, tag=1)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        assert tracer.of_kind("wire_drop")


class TestZeroByteSemantics:
    def test_zero_byte_message_both_systems(self, either_system):
        """Zero-byte messages still synchronize (envelope-only packet)."""
        world = build_world(either_system)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))
        out = {}

        def rank0():
            req = yield from h0.recv(1, 0, tag=3)
            out["tag"] = req.match_tag

        def rank1():
            yield from h1.send(0, 0, tag=3)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        assert out["tag"] == 3
        assert h0.device.stats.msgs_recv_done == 1
        assert h0.device.stats.bytes_recv_done == 0


class TestManyOutstandingRequests:
    def test_hundred_concurrent_messages(self, either_system):
        """Queue pressure: 100 small messages posted before any waits."""
        world = build_world(either_system)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))
        n = 100

        def rank0():
            reqs = []
            for i in range(n):
                r = yield from h0.irecv(1, 2 * KB, tag=i)
                reqs.append(r)
            yield from h0.waitall(reqs)

        def rank1():
            reqs = []
            for i in range(n):
                r = yield from h1.isend(0, 2 * KB, tag=i)
                reqs.append(r)
            yield from h1.waitall(reqs)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        assert h0.device.stats.msgs_recv_done == n


class TestInterleaveDrain:
    def test_interleaved_pww_drains_backlog(self, gm):
        """With interleave > 1 the tail batches complete after the last
        measured cycle — nothing leaks."""
        from repro.core import PwwConfig, run_pww

        pt = run_pww(gm, PwwConfig(
            msg_bytes=50 * KB, work_interval_iters=50_000,
            batches=5, warmup_batches=1, interleave=3,
        ))
        assert pt.batches == 5
        assert pt.bandwidth_Bps > 0


class TestEngineTraceHook:
    def test_kernel_trace_records_processed_events(self):
        tracer = ObsTracer(kernel=True)
        engine = Engine(trace=tracer)
        engine.timeout(1.0)
        engine.timeout(2.0)
        engine.run()
        assert len(tracer.of_kind("kernel")) == 2
