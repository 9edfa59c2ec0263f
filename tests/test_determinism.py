"""Tests: every public measurement is bit-deterministic.

The simulator has no hidden global state (the only global counter is the
wire message id, which does not influence timing), so identical inputs must
give identical outputs — the property every figure regeneration relies on.
"""

import pytest

from repro.baselines import (
    NetperfConfig,
    PingPongConfig,
    run_netperf,
    run_pingpong,
)
from repro.config import gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww

KB = 1024


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
class TestDeterminism:
    def test_polling_repeatable(self, factory):
        cfg = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=7_777,
                            measure_s=0.02, warmup_s=0.004)
        a = run_polling(factory(), cfg)
        b = run_polling(factory(), cfg)
        assert a.availability == b.availability
        assert a.bandwidth_Bps == b.bandwidth_Bps
        assert a.iters == b.iters and a.msgs == b.msgs

    def test_pww_repeatable(self, factory):
        cfg = PwwConfig(msg_bytes=100 * KB, work_interval_iters=333_333,
                        batches=5, warmup_batches=1)
        a = run_pww(factory(), cfg)
        b = run_pww(factory(), cfg)
        assert (a.post_s, a.work_s, a.wait_s) == (b.post_s, b.work_s, b.wait_s)

    def test_pingpong_repeatable(self, factory):
        cfg = PingPongConfig(30 * KB, repeats=4, warmup_msgs=1)
        a = run_pingpong(factory(), cfg)
        b = run_pingpong(factory(), cfg)
        assert a.latency_s == b.latency_s

    def test_netperf_repeatable(self, factory):
        cfg = NetperfConfig(msg_bytes=30 * KB, wait_mode="busywait")
        a = run_netperf(factory(), cfg)
        b = run_netperf(factory(), cfg)
        assert a.availability == b.availability


def test_configs_do_not_leak_between_runs():
    """Running one system never perturbs a later run of another."""
    cfg = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=5_000,
                        measure_s=0.02, warmup_s=0.004)
    solo = run_polling(gm_system(), cfg)
    run_polling(portals_system(), cfg)  # interleave a different system
    again = run_polling(gm_system(), cfg)
    assert solo.bandwidth_Bps == again.bandwidth_Bps
    assert solo.availability == again.availability
