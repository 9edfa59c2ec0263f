"""Unit tests: link, switch, NIC and cluster wiring."""

import dataclasses

import pytest

from repro.config import NicConfig, SwitchConfig, SystemConfig, gm_system
from repro.hardware.cluster import Cluster
from repro.hardware.link import Link
from repro.hardware.memory import COPY_SETUP_S, copy_time
from repro.hardware.nic import NIC, NIC_TX_BUFFER_PKTS, SendJob
from repro.hardware.switch import PortFullError, Switch
from repro.hardware.topology import FatTree
from repro.sim import Engine
from repro.sim.units import usec
from repro.transport.packets import Packet, PacketKind, packetize


@pytest.fixture
def engine():
    return Engine()


def _pkt(src=0, dst=1, nbytes=1000, kind=PacketKind.DATA, **kw):
    return Packet(kind=kind, src=src, dst=dst, msg_id=1,
                  payload_bytes=nbytes, is_first=True, is_last=True, **kw)


class TestMemory:
    def test_copy_time_math(self):
        assert copy_time(1000, 1000.0) == pytest.approx(COPY_SETUP_S + 1.0)

    def test_zero_bytes_pays_setup(self):
        assert copy_time(0, 1e6) == pytest.approx(COPY_SETUP_S)

    def test_validation(self):
        with pytest.raises(ValueError):
            copy_time(-1, 1e6)
        with pytest.raises(ValueError):
            copy_time(10, 0.0)


class TestLink:
    def test_serializes_at_bandwidth(self, engine):
        link = Link(engine, bandwidth_Bps=1000.0, latency_s=0.0,
                    header_bytes=0)
        got = []
        link.deliver = lambda p: got.append((engine.now, p.payload_bytes))
        link.send(_pkt(nbytes=500))
        link.send(_pkt(nbytes=500))
        engine.run()
        assert got == [(0.5, 500), (1.0, 500)]

    def test_header_bytes_counted(self, engine):
        link = Link(engine, bandwidth_Bps=1000.0, latency_s=0.0,
                    header_bytes=100)
        got = []
        link.deliver = lambda p: got.append(engine.now)
        link.send(_pkt(nbytes=400))
        engine.run()
        assert got == [pytest.approx(0.5)]
        assert link.bytes_carried == 500

    def test_latency_added_after_serialization(self, engine):
        link = Link(engine, bandwidth_Bps=1000.0, latency_s=2.0,
                    header_bytes=0)
        got = []
        link.deliver = lambda p: got.append(engine.now)
        link.send(_pkt(nbytes=1000))
        engine.run()
        assert got == [pytest.approx(3.0)]

    def test_unattached_link_rejects_send(self, engine):
        link = Link(engine, bandwidth_Bps=1.0, latency_s=0.0, header_bytes=0)
        with pytest.raises(RuntimeError):
            link.send(_pkt())


class TestSwitch:
    def _switch(self, engine, ports=8):
        return Switch(engine, SwitchConfig(ports=ports), NicConfig())

    def test_forwards_to_destination(self, engine):
        sw = self._switch(engine)
        got = {0: [], 1: []}
        sw.attach(0, lambda p: got[0].append(p))
        sw.attach(1, lambda p: got[1].append(p))
        sw.ingress(_pkt(src=0, dst=1))
        engine.run()
        assert len(got[1]) == 1 and not got[0]

    def test_port_exhaustion(self, engine):
        sw = self._switch(engine, ports=2)
        sw.attach(0, lambda p: None)
        sw.attach(1, lambda p: None)
        with pytest.raises(PortFullError):
            sw.attach(2, lambda p: None)

    def test_duplicate_attach_rejected(self, engine):
        sw = self._switch(engine)
        sw.attach(0, lambda p: None)
        with pytest.raises(ValueError):
            sw.attach(0, lambda p: None)

    def test_unattached_destination_rejected(self, engine):
        sw = self._switch(engine)
        sw.attach(0, lambda p: None)
        with pytest.raises(RuntimeError):
            sw.ingress(_pkt(src=0, dst=9))
        engine.run()

    def test_output_port_contention_serializes(self, engine):
        # Two senders to the same destination share its output link.
        sw = self._switch(engine)
        times = []
        sw.attach(0, lambda p: None)
        sw.attach(1, lambda p: None)
        sw.attach(2, lambda p: times.append(engine.now))
        big = NicConfig().wire_bandwidth_Bps
        sw.ingress(_pkt(src=0, dst=2, nbytes=160_000))
        sw.ingress(_pkt(src=1, dst=2, nbytes=160_000))
        engine.run()
        assert len(times) == 2
        # Second packet waits for the first's ~1 ms serialization.
        assert times[1] - times[0] >= 160_000 / big * 0.99


class TestNic:
    def _nic(self, engine, node_id=0):
        nic = NIC(engine, NicConfig(), node_id)
        sent = []
        nic.uplink = sent.append
        return nic, sent

    def test_tx_streams_job(self, engine):
        nic, sent = self._nic(engine)
        pkts = packetize(PacketKind.DATA, 0, 1, 1, 10_000, 4096)
        done = []
        nic.submit(SendJob(pkts, on_done=lambda: done.append(engine.now)))
        engine.run()
        assert len(sent) == 3
        assert done and nic.tx_packets == 3

    def test_on_packet_out_called_per_packet(self, engine):
        nic, _ = self._nic(engine)
        pkts = packetize(PacketKind.DATA, 0, 1, 1, 9000, 4096)
        outs = []
        nic.submit(SendJob(pkts, on_packet_out=lambda p: outs.append(p.index)))
        engine.run()
        assert outs == [0, 1, 2]

    def test_urgent_job_overtakes_bulk(self, engine):
        nic, sent = self._nic(engine)
        bulk = packetize(PacketKind.DATA, 0, 1, 1, 40_960, 4096)
        nic.submit(SendJob(bulk))
        ctrl = _pkt(kind=PacketKind.RTS, nbytes=0)
        nic.submit(SendJob([ctrl], urgent=True))
        engine.run()
        kinds = [p.kind for p in sent]
        # The control packet must not be last (it jumped the bulk queue).
        assert PacketKind.RTS in kinds[:-1]

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError):
            SendJob([])

    def test_rx_data_passes_host_bus(self, engine):
        nic, _ = self._nic(engine)
        got = []
        nic.rx_handler = lambda p: got.append(engine.now)
        nic.deliver(_pkt(nbytes=4096))
        engine.run()
        cfg = NicConfig()
        expected = cfg.dma_setup_s + (4096 + cfg.header_bytes) / cfg.host_dma_bandwidth_Bps
        assert got == [pytest.approx(expected)]

    def test_rx_control_skips_host_bus(self, engine):
        nic, _ = self._nic(engine)
        got = []
        nic.rx_handler = lambda p: got.append(engine.now)
        nic.deliver(_pkt(kind=PacketKind.ACK, nbytes=0))
        engine.run()
        assert got == [pytest.approx(NicConfig().nic_processing_s)]

    def test_rx_without_transport_rejected(self, engine):
        nic, _ = self._nic(engine)
        with pytest.raises(RuntimeError):
            nic.deliver(_pkt())

    def test_host_bus_shared_between_tx_and_rx(self, engine):
        nic, sent = self._nic(engine)
        nic.rx_handler = lambda p: None
        pkts = packetize(PacketKind.DATA, 0, 1, 1, 40_960, 4096)
        nic.submit(SendJob(pkts))
        for _ in range(10):
            nic.deliver(_pkt(nbytes=4096))
        engine.run()
        cfg = NicConfig()
        bus_bytes = 20 * (4096 + cfg.header_bytes)
        min_time = bus_bytes / cfg.host_dma_bandwidth_Bps
        assert engine.now >= min_time


class TestCluster:
    def test_builds_and_wires(self, engine):
        cluster = Cluster(engine, gm_system(), n_nodes=2)
        assert len(cluster) == 2
        assert cluster[0].nic.uplink == cluster.switch.ingress

    def test_too_few_nodes_rejected(self, engine):
        with pytest.raises(ValueError):
            Cluster(engine, gm_system(), n_nodes=1)

    def test_too_many_nodes_rejected(self, engine):
        with pytest.raises(ValueError):
            Cluster(engine, gm_system(), n_nodes=9)

    def test_end_to_end_packet_path(self, engine):
        cluster = Cluster(engine, gm_system(), n_nodes=2)
        got = []
        cluster[1].nic.rx_handler = lambda p: got.append(p)
        pkts = packetize(PacketKind.DATA, 0, 1, 7, 4096, 4096)
        cluster[0].nic.submit(SendJob(pkts))
        engine.run()
        assert len(got) == 1 and got[0].msg_id == 7

    def test_smp_node_has_multiple_cpus(self, engine):
        system = gm_system(cpus_per_node=2)
        cluster = Cluster(engine, system, n_nodes=2)
        assert len(cluster[0].cpus) == 2
        assert cluster[0].cpu is cluster[0].cpus[0]


class TestRoutedCreditWindow:
    """The wire-credit window on a routed (non-exclusive) route.

    With the default ``NicConfig`` NIC processing never outlasts eight
    DMA slots, so the window never fills.  A slow NIC makes DMA'd packets
    queue for credits: at most ``NIC_TX_BUFFER_PKTS`` may sit between the
    host bus and the wire.
    """

    N_PKTS = 40

    def _run(self):
        base = gm_system()
        nic_cfg = dataclasses.replace(base.machine.nic,
                                      nic_processing_s=usec(2000))
        system = dataclasses.replace(
            base, machine=dataclasses.replace(base.machine, nic=nic_cfg))
        engine = Engine()
        cluster = Cluster(engine, system, n_nodes=2,
                          topology=FatTree(arity=4))
        nic = cluster[0].nic
        uplink = nic.uplink
        counts = {"dma": 0, "wire": 0, "max_held": 0, "max_waiting": 0}

        def on_packet_out(_pkt):
            counts["dma"] += 1
            counts["max_waiting"] = max(counts["max_waiting"],
                                        counts["dma"] - counts["wire"])

        def to_wire(pkt):
            # Credits taken (tx_packets) minus packets already on the wire.
            counts["max_held"] = max(counts["max_held"],
                                     nic.tx_packets - counts["wire"])
            counts["wire"] += 1
            uplink(pkt)

        nic.uplink = to_wire
        arrivals = []
        cluster[1].nic.rx_handler = lambda p: arrivals.append(engine.now)
        done = []
        pkts = packetize(PacketKind.DATA, 0, 1, 1, self.N_PKTS * 4096, 4096)
        nic.submit(SendJob(pkts, on_packet_out=on_packet_out,
                           on_done=lambda: done.append(engine.now)))
        engine.run()
        return engine, counts, arrivals, done

    def test_window_bounds_packets_between_dma_and_wire(self):
        _engine, counts, arrivals, done = self._run()
        assert len(arrivals) == self.N_PKTS and len(done) == 1
        assert counts["wire"] == self.N_PKTS
        assert counts["max_held"] == NIC_TX_BUFFER_PKTS
        # The window really filled: DMA'd packets waited for a credit
        # (one at a time — the pump DMAs the next only after a grant).
        assert counts["max_waiting"] == NIC_TX_BUFFER_PKTS + 1

    def test_completion_and_event_count_pinned(self):
        # Recorded values: the credit-waiter path's event structure and
        # timing are part of the routed-path contract.
        engine, _counts, arrivals, done = self._run()
        assert done == [0.008369494505494506]
        assert arrivals[-1] == 0.01044218131868132
        assert engine.events_processed == 243
