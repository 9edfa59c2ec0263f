"""Topology layer: crossbar/fat-tree wiring, routing, and capacity."""

from __future__ import annotations

import pytest

from repro.hardware.topology import (
    Crossbar,
    FatTree,
    TOPOLOGIES,
    TopologyError,
    TreeSwitch,
    make_topology,
)
from repro.mpi import build_world

KB = 1024


class TestMakeTopology:
    def test_registry_names(self):
        assert set(TOPOLOGIES) == {"crossbar", "fattree"}

    def test_unknown_spec_raises(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            make_topology("hypercube")

    def test_crossbar_rejects_arity(self):
        with pytest.raises(TopologyError, match="takes no arity"):
            make_topology("crossbar", arity=8)

    def test_fattree_takes_arity(self):
        topo = make_topology("fattree", arity=4)
        assert isinstance(topo, FatTree)
        assert topo.arity == 4

    @pytest.mark.parametrize("arity", [1, 3, 5])
    def test_fattree_odd_arity_rejected(self, arity):
        with pytest.raises(TopologyError, match="even number"):
            FatTree(arity=arity)


class TestCrossbar:
    def test_default_topology_is_crossbar(self, gm):
        world = build_world(gm)
        assert isinstance(world.cluster.topology, Crossbar)
        assert world.cluster.switch is not None

    def test_port_capacity_enforced(self, gm):
        ports = gm.machine.switch.ports
        with pytest.raises(ValueError, match="exceed the switch's"):
            build_world(gm, n_nodes=ports + 1)

    def test_max_nodes_is_port_count(self, gm):
        world = build_world(gm)
        assert Crossbar().max_nodes(world.cluster) == gm.machine.switch.ports

    def test_explicit_crossbar_matches_default_wiring(self, gm):
        default = build_world(gm)
        explicit = build_world(gm, topology=Crossbar())
        assert len(default.cluster.nodes) == len(explicit.cluster.nodes)
        # Both two-node worlds arm the burst fast path.
        assert default.cluster.nodes[0].nic._fast
        assert explicit.cluster.nodes[0].nic._fast


def _one_way_s(system, n_nodes, topology, src, dst, nbytes=100 * KB):
    """Simulated seconds for one src→dst message on a fresh world."""
    world = build_world(system, n_nodes=n_nodes, topology=topology)
    engine = world.engine
    hs = world.endpoint(src).bind(world.cluster[src].new_context("tx"))
    hd = world.endpoint(dst).bind(world.cluster[dst].new_context("rx"))
    out = {}

    def sender():
        yield from hs.send(dst, nbytes, tag=1)

    def receiver():
        yield from hd.recv(src, nbytes, tag=1)
        out["t"] = engine.now

    engine.spawn(sender(), name="tx")
    p = engine.spawn(receiver(), name="rx")
    engine.run(p)
    return out["t"]


class TestFatTree:
    def test_capacity_is_k_times_half_k(self, gm):
        # k=4: 4 edges x 2 hosts = 8 nodes max.
        with pytest.raises(ValueError, match="8-host capacity"):
            build_world(gm, n_nodes=9, topology=FatTree(arity=4))
        world = build_world(gm, n_nodes=8, topology=FatTree(arity=4))
        assert len(world.cluster.nodes) == 8

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 16])
    def test_every_accepted_arity_wires_at_full_capacity(self, gm, k):
        # Tree switches take radix k, not the system switch's 8 ports:
        # k > 8 used to die in add_port ("all 8 ports in use").
        topo = FatTree(arity=k)
        world = build_world(gm, n_nodes=k * (k // 2), topology=topo)
        assert len(world.cluster.nodes) == k * (k // 2)
        assert (len(topo.edges), len(topo.cores)) == (k, k // 2)
        assert all(sw.config.ports == k for sw in topo.edges + topo.cores)
        last = k * (k // 2) - 1
        assert _one_way_s(gm, k * (k // 2), FatTree(arity=k), 0, last) > 0

    def test_no_central_switch(self, gm):
        world = build_world(gm, n_nodes=4, topology=FatTree(arity=4))
        assert world.cluster.switch is None

    def test_switch_counts(self, gm):
        topo = FatTree(arity=4)
        build_world(gm, n_nodes=6, topology=topo)
        # 6 hosts at 2 per edge -> 3 edge switches; k/2 = 2 cores.
        assert len(topo.edges) == 3
        assert len(topo.cores) == 2

    def test_hops_intra_vs_inter_edge(self, gm):
        topo = FatTree(arity=4)
        world = build_world(gm, n_nodes=4, topology=topo)
        assert topo.hops(0, 1, world.cluster) == 1  # same edge
        assert topo.hops(0, 2, world.cluster) == 3  # via a core

    def test_inter_edge_costs_two_more_hops(self, gm):
        # Same world shape, different destination: crossing the core must
        # be strictly slower (two extra link latencies + switch stages).
        intra = _one_way_s(gm, 4, FatTree(arity=4), 0, 1)
        inter = _one_way_s(gm, 4, FatTree(arity=4), 0, 2)
        assert inter > intra

    def test_deterministic(self, gm):
        a = _one_way_s(gm, 6, FatTree(arity=4), 0, 5)
        b = _one_way_s(gm, 6, FatTree(arity=4), 0, 5)
        assert a == b

    def test_all_pairs_deliver(self, gm):
        # Every (src, dst) pair on a 6-node two-edge-level world routes.
        for src in range(6):
            for dst in range(6):
                if src != dst:
                    assert _one_way_s(gm, 6, FatTree(arity=4), src, dst,
                                      nbytes=KB) > 0

    def test_counts_forwarded_packets(self, gm):
        topo = FatTree(arity=4)
        world = build_world(gm, n_nodes=4, topology=topo)
        del world
        assert all(sw.packets_forwarded == 0 for sw in topo.edges)
        _one_way_s(gm, 4, topo2 := FatTree(arity=4), 0, 2)
        assert sum(sw.packets_forwarded for sw in topo2.edges) > 0
        assert sum(sw.packets_forwarded for sw in topo2.cores) > 0


class TestTreeSwitch:
    def _switch(self, gm):
        from repro.sim.engine import Engine

        return TreeSwitch(Engine(), gm.machine.switch, gm.machine.nic, "sw")

    def test_duplicate_port_rejected(self, gm):
        sw = self._switch(gm)
        sw.add_port("a", lambda p: None)
        with pytest.raises(ValueError, match="already wired"):
            sw.add_port("a", lambda p: None)

    def test_port_exhaustion(self, gm):
        sw = self._switch(gm)
        for i in range(gm.machine.switch.ports):
            sw.add_port(f"p{i}", lambda p: None)
        with pytest.raises(TopologyError, match="ports in use"):
            sw.add_port("overflow", lambda p: None)

    def test_route_needs_existing_port(self, gm):
        sw = self._switch(gm)
        with pytest.raises(ValueError, match="no port"):
            sw.set_route(0, "missing")

    def test_unrouted_packet_raises(self, gm):
        from repro.transport.packets import Packet, PacketKind

        sw = self._switch(gm)
        pkt = Packet(kind=PacketKind.DATA, src=0, dst=7, msg_id=1,
                     payload_bytes=64)
        with pytest.raises(RuntimeError, match="no route to node 7"):
            sw.ingress(pkt)
