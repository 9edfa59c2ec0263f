"""Tests: the polling method driver (COMB §2.1)."""

import dataclasses

import pytest

from repro.core.polling import PollingConfig, run_polling
from repro.core.workloop import work_time

KB = 1024

FAST = dict(measure_s=0.02, warmup_s=0.003, min_cycles=4)


class TestValidation:
    def test_bad_interval(self, gm):
        with pytest.raises(ValueError):
            run_polling(gm, PollingConfig(poll_interval_iters=0))

    def test_bad_queue_depth(self, gm):
        with pytest.raises(ValueError):
            run_polling(gm, PollingConfig(queue_depth=0))


class TestInvariants:
    @pytest.mark.parametrize("interval", [100, 100_000, 10_000_000])
    def test_availability_in_unit_range(self, either_system, interval):
        pt = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=interval, **FAST,
        ))
        assert 0.0 <= pt.availability <= 1.0 + 1e-9

    def test_bandwidth_bounded_by_bus(self, either_system):
        pt = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        bus = either_system.machine.nic.host_dma_bandwidth_Bps
        # Aggregate payload cannot exceed the shared host-bus rate.
        assert pt.bandwidth_Bps <= bus * 1.01

    def test_point_metadata(self, gm):
        pt = run_polling(gm, PollingConfig(
            msg_bytes=50 * KB, poll_interval_iters=500, **FAST,
        ))
        assert pt.system == "GM"
        assert pt.msg_bytes == 50 * KB
        assert pt.poll_interval_iters == 500
        assert pt.elapsed_s > 0
        assert pt.polls > 0
        assert pt.iters > 0
        assert pt.msgs > 0

    def test_gm_has_no_interrupts(self, gm):
        pt = run_polling(gm, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert pt.interrupts == 0

    def test_portals_has_interrupts(self, portals):
        pt = run_polling(portals, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert pt.interrupts > 0


class TestShapes:
    def test_availability_rises_with_interval(self, either_system):
        lo = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=100, **FAST,
        ))
        hi = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=50_000_000, **FAST,
        ))
        assert hi.availability > lo.availability
        assert hi.availability > 0.9

    def test_bandwidth_collapses_at_huge_interval(self, either_system):
        plateau = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        starved = run_polling(either_system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=50_000_000, **FAST,
        ))
        assert starved.bandwidth_Bps < 0.2 * plateau.bandwidth_Bps

    def test_queue_depth_one_degenerates_to_pingpong(self, gm):
        deep = run_polling(gm, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, queue_depth=4,
            **FAST,
        ))
        shallow = run_polling(gm, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, queue_depth=1,
            **FAST,
        ))
        # The paper: depth 1 sacrifices maximum sustained bandwidth.
        assert shallow.bandwidth_Bps < deep.bandwidth_Bps

    def test_gm_10kb_availability_penalty(self, gm):
        """§4.2: eager sends cost ~45 µs, depressing availability at
        10 KB relative to rendezvous sizes at the same interval."""
        small = run_polling(gm, PollingConfig(
            msg_bytes=10 * KB, poll_interval_iters=1_000, **FAST,
        ))
        large = run_polling(gm, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert small.availability < large.availability - 0.15


class TestDeterminism:
    def test_identical_runs_identical_results(self, portals):
        cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=3_000,
                            **FAST)
        a = run_polling(portals, cfg)
        b = run_polling(portals, cfg)
        assert a.to_dict() == b.to_dict()


class TestWorkloop:
    def test_work_time_linear(self, gm):
        assert work_time(gm, 1_000_000) == pytest.approx(
            1_000_000 * gm.machine.cpu.work_iter_s
        )
