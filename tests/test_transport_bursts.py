"""Tests: burst-batched wire transfers (the event-lean fast path).

Two-node clusters with no tracer arm the NICs' fast transmit pump
(:meth:`repro.hardware.nic.NIC.enable_fast`): contiguous runs of DATA
fragments ride a single lazy :class:`~repro.sim.resources.BurstDomain`
burst instead of one heap event per fragment per hop.  The fast path is
an *optimization with a bit-identity contract*: every measurement must
equal the legacy per-packet path exactly, for every fragmentation shape.

Structure checks pin the batching decision itself (what bursts, what
falls back); equivalence checks compare bare (fast) runs against traced
(legacy) runs bit for bit; the event-count checks assert the whole point
of the layer — an order of magnitude fewer dispatched heap events on
multi-fragment traffic.
"""

import dataclasses

import pytest

from repro.config import FaultConfig, gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.core.accounting import drain_events
from repro.hardware.nic import SendJob
from repro.mpi import build_world
from repro.obs import Observer, ObsTracer
from repro.obs.context import use_observer
from repro.transport.packets import (
    PacketKind,
    control_packet,
    next_msg_id,
    packetize,
)
from repro.verify import Sanitizer, use_sanitizer

KB = 1024
MTU = gm_system().machine.nic.mtu_bytes


def _traced(fn, system, cfg):
    """Run a point with the observer attached: the NICs keep the legacy
    per-packet path (enable_fast refuses when a tracer is present)."""
    with use_observer(Observer()):
        return fn(system, cfg)


def _ambient_observer_world():
    with use_observer(Observer()):
        return build_world(gm_system())


def _ambient_sanitizer_world():
    with use_sanitizer(Sanitizer()):
        return build_world(gm_system())


def _ambient_both_world():
    with use_sanitizer(Sanitizer()), use_observer(Observer()):
        return build_world(gm_system())


def _explicit_tracer_world():
    return build_world(gm_system(), tracer=ObsTracer())


def _custom_tracer_world():
    return build_world(gm_system(device="repro.transport.gm:GmDevice"),
                       tracer=ObsTracer())


# ---------------------------------------------------------------- structure
class TestBatchingDecision:
    def _nic(self, system=None):
        world = build_world(system or gm_system())
        nic = world.cluster[0].nic
        assert nic._fast, "two-node untraced cluster must arm the fast pump"
        return world, nic

    def _submit(self, world, nic, job):
        """Submit and process the pump's zero-delay start hop (submissions
        are asynchronous by one event, mirroring the legacy queue wake).
        Drains every zero-time event — process start-ups sort ahead of
        the hop — without advancing simulated time."""
        nic.submit(job)
        eng = world.engine
        while eng._queue and eng._queue[0][0] == eng.now:
            eng.step()

    def test_multi_fragment_data_job_bursts(self):
        world, nic = self._nic()
        pkts = packetize(PacketKind.DATA, 0, 1, next_msg_id(), 2 * MTU, MTU)
        assert len(pkts) == 2
        self._submit(world, nic, SendJob(pkts))
        # A burst registers one tx and one rx lazy stream on the domain.
        assert len(nic._domain.streams) == 2

    def test_single_fragment_job_never_bursts(self):
        world, nic = self._nic()
        pkts = packetize(PacketKind.DATA, 0, 1, next_msg_id(), KB, MTU)
        assert len(pkts) == 1
        self._submit(world, nic, SendJob(pkts))
        assert nic._domain.streams == []

    @pytest.mark.parametrize("kind", [PacketKind.RTS, PacketKind.CTS,
                                      PacketKind.ACK])
    def test_control_packets_never_burst(self, kind):
        world, nic = self._nic()
        mid = next_msg_id()
        pkts = [control_packet(kind, 0, 1, mid),
                control_packet(kind, 0, 1, mid)]
        self._submit(world, nic, SendJob(pkts))
        assert nic._domain.streams == []

    def test_mixed_kind_job_never_bursts(self):
        world, nic = self._nic()
        mid = next_msg_id()
        pkts = packetize(PacketKind.DATA, 0, 1, mid, 2 * MTU, MTU)
        pkts.append(control_packet(PacketKind.ACK, 0, 1, mid))
        self._submit(world, nic, SendJob(pkts))
        assert nic._domain.streams == []

    def test_lossy_route_disables_bursts(self):
        base = portals_system()
        system = dataclasses.replace(
            base, machine=dataclasses.replace(
                base.machine, fault=FaultConfig(data_loss_rate=0.05)
            )
        )
        world = build_world(system)
        nic = world.cluster[0].nic
        pkts = packetize(PacketKind.DATA, 0, 1, next_msg_id(), 2 * MTU, MTU)
        nic.submit(SendJob(pkts))
        eng = world.engine
        while eng._queue and eng._queue[0][0] == eng.now:
            eng.step()
        # The pump may be armed, but a lossy link falls back per-packet
        # (retransmission bookkeeping needs every fragment event).
        if nic._domain is not None:
            assert nic._domain.streams == []

    @pytest.mark.parametrize("build", [
        _ambient_observer_world,
        _ambient_sanitizer_world,
        _ambient_both_world,
        _explicit_tracer_world,
        _custom_tracer_world,
    ], ids=["observer", "sanitizer", "both", "explicit", "custom"])
    def test_traced_cluster_keeps_legacy_path(self, build):
        world = build()
        assert world.engine.trace is not None
        assert not any(node.nic._fast for node in world.cluster.nodes)


# -------------------------------------------------------------- equivalence
#: Fragmentation edge shapes: below one MTU, exactly one MTU, an exact
#: multiple, one byte past a boundary, and a deep multi-fragment message.
EDGE_SIZES = [KB, MTU, 2 * MTU, 2 * MTU + 1, 25 * MTU]


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
@pytest.mark.parametrize("msg_bytes", EDGE_SIZES)
def test_polling_bare_equals_traced(factory, msg_bytes):
    cfg = PollingConfig(msg_bytes=msg_bytes, poll_interval_iters=2_000,
                        measure_s=0.008, warmup_s=0.002, min_cycles=2)
    bare = run_polling(factory(), cfg)
    traced = _traced(run_polling, factory(), cfg)
    assert bare == traced


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
@pytest.mark.parametrize("msg_bytes", EDGE_SIZES)
def test_pww_bare_equals_traced(factory, msg_bytes):
    cfg = PwwConfig(msg_bytes=msg_bytes, work_interval_iters=50_000,
                    batches=4, warmup_batches=1)
    bare = run_pww(factory(), cfg)
    traced = _traced(run_pww, factory(), cfg)
    assert bare == traced


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_lossy_run_bare_equals_traced(factory):
    """With loss on the wire both modes take the per-packet path — and
    must still agree bit for bit (same RNG streams, same retransmits)."""
    base = factory()
    system = dataclasses.replace(
        base, machine=dataclasses.replace(
            base.machine, fault=FaultConfig(data_loss_rate=0.02)
        )
    )
    cfg = PwwConfig(msg_bytes=3 * MTU, work_interval_iters=50_000,
                    batches=3, warmup_batches=1)
    bare = run_pww(system, cfg)
    traced = _traced(run_pww, system, cfg)
    assert bare == traced


# -------------------------------------------------------------- event count
class TestEventCounts:
    def _count(self, fn, system, cfg, traced):
        drain_events()  # isolate from any earlier runs in the process
        if traced:
            pt = _traced(fn, system, cfg)
        else:
            pt = fn(system, cfg)
        return pt, drain_events()

    def test_large_message_point_drops_10x_gm(self):
        """The acceptance bar: on a large-message OS-bypass sweep point
        the fast paths dispatch >= 10x fewer heap events than the legacy
        path, while producing the identical measurement."""
        cfg = PollingConfig(msg_bytes=500 * KB, poll_interval_iters=100_000,
                            measure_s=0.02, warmup_s=0.004)
        bare, n_bare = self._count(run_polling, gm_system(), cfg,
                                   traced=False)
        traced, n_traced = self._count(run_polling, gm_system(), cfg,
                                       traced=True)
        assert bare == traced
        assert n_bare > 0 and n_traced > 0
        assert n_traced >= 10 * n_bare, (n_traced, n_bare)

    def test_large_message_point_improves_portals(self):
        """Portals' kernel transport tracks every fragment for go-back-N
        reliability, so DATA jobs cannot burst — but merged emission on
        the exclusive two-node route still has to cut the event count
        strictly."""
        cfg = PollingConfig(msg_bytes=500 * KB, poll_interval_iters=100_000,
                            measure_s=0.02, warmup_s=0.004)
        bare, n_bare = self._count(run_polling, portals_system(), cfg,
                                   traced=False)
        traced, n_traced = self._count(run_polling, portals_system(), cfg,
                                       traced=True)
        assert bare == traced
        assert 0 < n_bare < n_traced, (n_traced, n_bare)

    def test_runners_deposit_counts(self):
        cfg = PwwConfig(msg_bytes=64 * KB, work_interval_iters=50_000,
                        batches=3, warmup_batches=1)
        drain_events()
        run_pww(gm_system(), cfg)
        assert drain_events() > 0
        # Drained: a second drain reports nothing.
        assert drain_events() == 0
