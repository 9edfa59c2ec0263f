"""Integration tests: the paper's headline claims, end to end.

Each test regenerates a reduced-resolution slice of a results figure and
asserts the claim the paper draws from it.  These are the repository's
acceptance tests; EXPERIMENTS.md records the full-resolution runs.
"""

import pytest

from repro.analysis import run_figure
from repro.config import gm_system, portals_system
from repro.core import CombSuite, PollingConfig, PwwConfig, run_polling, run_pww

KB = 1024


class TestBandwidthHierarchy:
    """§4 / Fig 8: GM ≈ 88 MB/s ≫ Portals ≈ 50 MB/s on identical hardware."""

    def test_plateaus(self):
        gm = run_polling(gm_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))
        po = run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))
        assert 80 <= gm.bandwidth_MBps <= 95
        assert 40 <= po.bandwidth_MBps <= 60
        assert gm.bandwidth_MBps > 1.4 * po.bandwidth_MBps

    def test_availability_hierarchy_at_plateau(self):
        """Fig 14 vs 15: GM leaves the CPU to the application; Portals
        consumes it in interrupts and copies."""
        gm = run_polling(gm_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=10_000, measure_s=0.05,
        ))
        po = run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=10_000, measure_s=0.05,
        ))
        assert gm.availability > 0.9
        assert po.availability < 0.5


class TestOffloadDetection:
    """§4.1: COMB's PWW method distinguishes application offload."""

    def test_verdicts(self):
        assert not CombSuite(gm_system()).offload_verdict().offloaded
        assert CombSuite(portals_system()).offload_verdict().offloaded


class TestKneeOrdering:
    """Figs 4–5: larger messages keep the pipeline busy to larger poll
    intervals — knees shift right with message size."""

    @staticmethod
    def _knee(system, msg_bytes):
        """Smallest tested interval at which bandwidth fell below half of
        the plateau."""
        plateau = run_polling(system, PollingConfig(
            msg_bytes=msg_bytes, poll_interval_iters=1_000, measure_s=0.04,
        )).bandwidth_Bps
        for interval in (3e5, 1e6, 3e6, 1e7, 3e7, 1e8):
            pt = run_polling(system, PollingConfig(
                msg_bytes=msg_bytes, poll_interval_iters=int(interval),
                measure_s=0.04,
            ))
            if pt.bandwidth_Bps < plateau / 2:
                return interval
        return float("inf")

    def test_knee_shifts_with_size(self):
        system = portals_system()
        small = self._knee(system, 10 * KB)
        large = self._knee(system, 300 * KB)
        assert small < large

    def test_knee_in_paper_ballpark(self):
        """100 KB knee in the 10^5–10^7 iteration range (paper: ~10^6)."""
        knee = self._knee(gm_system(), 100 * KB)
        assert 1e5 <= knee <= 1e7


class TestProgressRuleStory:
    """§4.3: the MPI_Test experiment (Fig 17) and the Progress Rule."""

    def test_single_test_recovers_gm_overlap(self):
        work = 3_000_000  # 12 ms: plenty to hide a 100 KB exchange
        plain = run_pww(gm_system(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=work,
        ))
        tested = run_pww(gm_system(), PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=work, tests_in_work=1,
        ))
        # The one call lets the transfer ride the work phase...
        assert tested.wait_s < 0.2 * plain.wait_s
        # ...so the same exchange now costs less wall time: bandwidth and
        # availability both rise (Fig 17's up-and-right shift).
        assert tested.bandwidth_Bps > plain.bandwidth_Bps
        assert tested.availability > plain.availability


class TestFigureClaimsQuick:
    """Claim checkers against coarse regenerated figures (``comb figures
    --per-decade 1`` checks the full set and exits 1 on a failed claim)."""

    @pytest.mark.parametrize("fig_id", ["fig09", "fig10", "fig12"])
    def test_claims_hold(self, fig_id):
        rep = run_figure(fig_id, per_decade=1) if fig_id != "fig12" else \
            run_figure(fig_id, grid=(100_000, 300_000, 500_000))
        assert rep.ok, [f"{c.claim}: {c.detail}" for c in rep.claims if not c.ok]
