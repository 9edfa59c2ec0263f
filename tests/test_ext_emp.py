"""Tests: the EMP-like Gigabit Ethernet offload preset."""

import pytest

from repro.config import emp_system
from repro.core import CombSuite, PollingConfig, PwwConfig, run_polling, run_pww

KB = 1024

FAST = dict(measure_s=0.03, warmup_s=0.005)


class TestEmpCharacter:
    def test_offloaded_without_interrupts(self):
        """EMP's defining combination: NIC-driven progress, zero host
        interrupts."""
        system = emp_system()
        verdict = CombSuite(system).offload_verdict()
        assert verdict.offloaded
        assert abs(verdict.overhead_long_s) < 5e-5
        pt = run_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert pt.interrupts == 0

    def test_gigabit_class_bandwidth(self):
        """~80+ MB/s through 1500-byte frames (the published EMP range)."""
        pt = run_polling(emp_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert 70 <= pt.bandwidth_MBps <= 92
        assert pt.availability > 0.85

    def test_small_frames_many_packets(self):
        """1500-byte MTU: a 100 KB message is ~69 frames, not 25."""
        from repro.mpi import build_world

        world = build_world(emp_system())
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
        assert world.cluster[0].nic.rx_packets >= 69

    def test_cheap_user_level_posts(self):
        pt = run_pww(emp_system(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=100_000,
            batches=4, warmup_batches=1,
        ))
        # Descriptor writes, not kernel traps.
        assert pt.post_s < 20e-6

    def test_comparison_row(self):
        """In the cross-system table EMP reads: offloaded, low latency,
        near-GM bandwidth."""
        from repro.analysis.tables import summarize_system
        from repro.config import gm_system

        emp = summarize_system(emp_system())
        gm = summarize_system(gm_system())
        assert emp.offloaded and not gm.offloaded
        assert emp.latency0_s < gm.latency0_s
        assert emp.peak_bandwidth_Bps > 0.8 * gm.peak_bandwidth_Bps
