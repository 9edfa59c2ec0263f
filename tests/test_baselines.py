"""Tests: ping-pong, netperf and White & Bova baselines."""

import pytest

from repro.baselines import (
    NetperfConfig,
    PingPongConfig,
    classify_overlap,
    classify_sizes,
    run_netperf,
    run_pingpong,
)

KB = 1024


class TestPingPong:
    def test_latency_positive_and_ordered(self, gm):
        small = run_pingpong(gm, PingPongConfig(0, repeats=5, warmup_msgs=1))
        large = run_pingpong(gm, PingPongConfig(100 * KB, repeats=5,
                                            warmup_msgs=1))
        assert 0 < small.latency_s < large.latency_s

    def test_bandwidth_grows_with_size(self, either_system):
        mid = run_pingpong(either_system, PingPongConfig(
            10 * KB, repeats=5, warmup_msgs=1))
        big = run_pingpong(either_system, PingPongConfig(
            300 * KB, repeats=5, warmup_msgs=1))
        assert big.bandwidth_MBps > mid.bandwidth_MBps

    def test_gm_beats_portals_on_latency(self, gm, portals):
        g = run_pingpong(gm, PingPongConfig(100 * KB, repeats=5,
                                            warmup_msgs=1))
        p = run_pingpong(portals, PingPongConfig(100 * KB, repeats=5,
                                                warmup_msgs=1))
        assert g.latency_s < p.latency_s

    def test_validation(self, gm):
        with pytest.raises(ValueError):
            run_pingpong(gm, PingPongConfig(1024, repeats=0))

    def test_zero_byte_bandwidth_is_zero(self, gm):
        r = run_pingpong(gm, PingPongConfig(0, repeats=3, warmup_msgs=1))
        assert r.bandwidth_Bps == 0.0


class TestNetperf:
    def test_validation(self, gm):
        with pytest.raises(ValueError):
            run_netperf(gm, NetperfConfig(wait_mode="nonsense"))

    def test_gm_blocking_breaks_entirely(self, gm):
        """§5: select-style waiting + library-polled progress = no traffic,
        availability 1.0 — the netperf approach is meaningless here."""
        r = run_netperf(gm, NetperfConfig(wait_mode="blocking"))
        assert r.availability == pytest.approx(1.0, abs=0.01)
        assert r.bandwidth_MBps < 1.0

    def test_gm_busywait_reports_half(self, gm):
        """§5: the spinning MPI process soaks its timeslice, so netperf
        reads ~50% although GM's true overhead is near zero."""
        r = run_netperf(gm, NetperfConfig(wait_mode="busywait"))
        assert r.availability == pytest.approx(0.5, abs=0.05)
        assert r.bandwidth_MBps > 10

    def test_kernel_stack_blocking_shows_true_overhead(self, tcp):
        r = run_netperf(tcp, NetperfConfig(wait_mode="blocking"))
        assert 0.1 < r.availability < 0.8
        assert r.bandwidth_MBps > 10

    def test_busywait_never_higher_than_blocking(self, tcp):
        block = run_netperf(tcp, NetperfConfig(wait_mode="blocking"))
        spin = run_netperf(tcp, NetperfConfig(wait_mode="busywait"))
        assert spin.availability <= block.availability + 0.02

    def test_result_fields(self, portals):
        r = run_netperf(portals, NetperfConfig(msg_bytes=50 * KB,
                                              wait_mode="blocking"))
        assert r.msg_bytes == 50 * KB
        assert r.dry_s > 0 and r.loaded_s >= r.dry_s


class TestWhiteBova:
    def test_gm_large_serializes(self, gm):
        c = classify_overlap(gm, 100 * KB)
        assert not c.overlaps
        assert c.overlap_fraction < 0.3

    def test_offload_nic_overlaps(self):
        from repro.config import offload_nic_system

        c = classify_overlap(offload_nic_system(), 100 * KB)
        assert c.overlaps
        assert c.overlap_fraction > 0.7

    def test_classify_sizes_batch(self, gm):
        results = classify_sizes(gm, [10 * KB, 100 * KB])
        assert len(results) == 2
        assert results[0].msg_bytes == 10 * KB

    def test_fields_consistent(self, portals):
        c = classify_overlap(portals, 50 * KB)
        assert c.t_comm_s > 0 and c.t_work_s > 0 and c.t_both_s > 0
        # Both together can never be faster than the slower alone.
        assert c.t_both_s >= max(c.t_comm_s, c.t_work_s) * 0.95
