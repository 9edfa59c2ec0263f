"""Ablation (DESIGN.md #3): the progress-engine split is the whole story.

Putting offloaded progress on GM-class hardware (the idealized no-interrupt
offload NIC) collapses the PWW wait phase that library-polled GM cannot
escape — isolating the single design choice behind Figures 11, 13 and 17.
"""

from repro.config import gm_system, offload_nic_system
from repro.core import CombSuite, PwwConfig, run_pww

KB = 1024
LONG_WORK = 10_000_000


def test_ablation_progress_model(benchmark):
    """Offloaded progress drains the wait phase; library-polled keeps it."""
    def run():
        gm = run_pww(gm_system(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=LONG_WORK,
        ))
        offload = run_pww(offload_nic_system(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=LONG_WORK,
        ))
        return gm, offload

    gm, offload = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n  GM (library-polled): wait={gm.wait_s * 1e6:8.1f} us")
    print(f"  OffloadNIC         : wait={offload.wait_s * 1e6:8.1f} us")
    assert gm.wait_s > 1e-3, "GM should still pay the transfer in the wait"
    assert offload.wait_s < 2e-4, "offloaded progress should drain the wait"
    # Neither steals CPU during work (both are interrupt-free).
    assert abs(gm.overhead_s) < 5e-5
    assert abs(offload.overhead_s) < 5e-5
