"""Simulator micro-benchmarks: raw event throughput of the DES substrate.

Not a paper figure — these track the cost of the simulation itself so
regressions in the kernel or CPU model show up as slower sweeps.
"""

from repro.config import gm_system, portals_system
from repro.baselines import PingPongConfig, run_pingpong
from repro.core import PollingConfig, run_polling
from repro.sim import Engine

KB = 1024


def test_engine_event_throughput(benchmark):
    """Plain timeout events through the heap (kernel hot path)."""
    def run():
        engine = Engine()

        def ticker():
            for _ in range(20_000):
                yield engine.timeout(1e-6)

        proc = engine.spawn(ticker())
        engine.run(proc)
        return engine.now

    now = benchmark(run)
    assert abs(now - 0.02) < 1e-9


def test_pingpong_cost(benchmark):
    """A 20-exchange GM ping-pong (MPI + transport + NIC hot path)."""
    result = benchmark(
        lambda: run_pingpong(gm_system(), PingPongConfig(100 * KB)))
    assert result.bandwidth_MBps > 30


def test_polling_point_cost(benchmark):
    """One full Portals polling point (the sweep unit of Figs 4/5/15)."""
    def run():
        return run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.03,
        ))

    pt = benchmark.pedantic(run, rounds=2, iterations=1)
    assert pt.bandwidth_MBps > 20
