"""White & Bova–style binary overlap classification (paper ref [11]).

"Where's the overlap?" characterized MPI implementations by a yes/no
answer per message size: post non-blocking operations, compute for roughly
the message transfer time, wait — if the total is close to
``max(T_comm, T_work)`` the system overlapped; if it is close to
``T_comm + T_work`` it serialized.  COMB extends this with *degrees* of
overlap and the bandwidth/availability trade-off; the baseline is kept
here for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..config import SystemConfig
from ..core.workloop import work_time


@dataclass
class OverlapClassification:
    """One size's verdict."""

    system: str
    msg_bytes: int
    #: Pure communication time for the exchange (no work).
    t_comm_s: float
    #: Work time chosen to approximate ``t_comm_s``.
    t_work_s: float
    #: Measured post+work+wait cycle with both running.
    t_both_s: float
    #: ``(t_comm_s + t_work_s - t_both_s) / min(t_comm_s, t_work_s)`` — 1 means full
    #: overlap, 0 means full serialization.
    overlap_fraction: float
    #: The binary verdict White & Bova would report.
    overlaps: bool


def classify_overlap(
    system: SystemConfig,
    msg_bytes: int,
    threshold: float = 0.5,
) -> OverlapClassification:
    """Classify one message size."""
    # Imported here: the executor imports this package for its baseline
    # kinds, so a module-level import of the suite would cycle.
    from ..core.suite import CombSuite

    suite = CombSuite(system)
    # Communication-only cycle: PWW with zero work.
    comm = suite.pww(msg_bytes=msg_bytes, work_interval_iters=0)
    t_comm_s = comm.post_s + comm.wait_s
    # Pick a work interval close to the communication time.
    iter_s = system.machine.cpu.work_iter_s
    work_iters = max(1, int(t_comm_s / iter_s))
    t_work_s = work_time(system, work_iters)
    both = suite.pww(msg_bytes=msg_bytes, work_interval_iters=work_iters)
    t_both_s = both.post_s + both.work_s + both.wait_s
    denom = min(t_comm_s, t_work_s)
    frac = (t_comm_s + t_work_s - t_both_s) / denom if denom > 0 else 0.0
    return OverlapClassification(
        system=system.name,
        msg_bytes=msg_bytes,
        t_comm_s=t_comm_s,
        t_work_s=t_work_s,
        t_both_s=t_both_s,
        overlap_fraction=frac,
        overlaps=frac >= threshold,
    )


def classify_sizes(
    system: SystemConfig, sizes: Sequence[int], threshold: float = 0.5
) -> List[OverlapClassification]:
    """Classify several sizes (the full White & Bova table)."""
    return [classify_overlap(system, s, threshold) for s in sizes]
