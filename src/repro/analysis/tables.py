"""Cross-system comparison tables.

The paper prints no numeric tables, but its §4 analysis reads like one:
latency, peak bandwidth, availability at peak, overhead, offload verdict,
post/wait costs.  :func:`system_comparison` computes that table for any set
of systems — the "is my new NIC design worth it?" summary a COMB user
actually wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, cast

from ..baselines.pingpong import PingPongConfig, PingPongResult
from ..config import SystemConfig
from ..core.executor import PointTask, SweepExecutor
from ..core.suite import CombSuite
from ..sim.units import to_mbps, to_usec


@dataclass
class SystemSummary:
    """One row of the comparison table."""

    system: str
    #: Half round-trip for a zero-byte message.
    latency0_s: float
    #: Polling-method aggregate bandwidth at a plateau interval (100 KB).
    peak_bandwidth_Bps: float
    #: CPU availability at that plateau point.
    availability_at_peak: float
    #: PWW work-phase stretch at a long interval (communication overhead).
    overhead_s: float
    #: PWW post cost per message.
    post_per_msg_s: float
    #: PWW residual wait at a long work interval.
    wait_long_s: float
    #: Application offload verdict.
    offloaded: bool

    def row(self) -> List[str]:
        """Formatted table cells."""
        return [
            self.system,
            f"{to_usec(self.latency0_s):7.1f}",
            f"{to_mbps(self.peak_bandwidth_Bps):7.1f}",
            f"{self.availability_at_peak:6.3f}",
            f"{to_usec(self.overhead_s):8.1f}",
            f"{to_usec(self.post_per_msg_s):7.1f}",
            f"{to_usec(self.wait_long_s):8.1f}",
            "yes" if self.offloaded else "NO",
        ]


HEADERS = [
    "system", "lat0(us)", "bw(MB/s)", "avail", "ovh(us)", "post(us)",
    "wait(us)", "offload",
]


def summarize_system(
    system: SystemConfig,
    msg_bytes: int = 100 * 1024,
    plateau_interval_iters: int = 1_000,
) -> SystemSummary:
    """Compute one comparison row (a handful of short runs)."""
    executor = SweepExecutor()
    suite = CombSuite(system, executor)
    ping = cast(PingPongResult, executor.run_one(PointTask(
        "pingpong", system, PingPongConfig(0, repeats=8, warmup_msgs=2))))
    plateau = suite.polling(
        msg_bytes=msg_bytes, poll_interval_iters=plateau_interval_iters,
        measure_s=0.04,
    )
    verdict = suite.offload_verdict(msg_bytes=msg_bytes)
    long_pww = suite.pww(
        msg_bytes=msg_bytes, work_interval_iters=10_000_000,
        batches=4, warmup_batches=1,
    )
    return SystemSummary(
        system=system.name,
        latency0_s=ping.latency_s,
        peak_bandwidth_Bps=plateau.bandwidth_Bps,
        availability_at_peak=plateau.availability,
        overhead_s=long_pww.overhead_s,
        post_per_msg_s=long_pww.post_per_msg_s,
        wait_long_s=long_pww.wait_s,
        offloaded=verdict.offloaded,
    )


def system_comparison(
    systems: Sequence[SystemConfig], msg_bytes: int = 100 * 1024
) -> List[SystemSummary]:
    """Comparison rows for several systems."""
    return [summarize_system(s, msg_bytes=msg_bytes) for s in systems]


def format_table(rows: Sequence[SystemSummary]) -> str:
    """Render rows as an aligned text table."""
    cells = [HEADERS] + [r.row() for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(HEADERS))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
