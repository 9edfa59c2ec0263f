"""Result records for pattern measurements.

:class:`PatternPoint` carries per-rank samples as parallel primitive
lists (not nested dataclasses) so the executor's content-addressed cache
can reconstruct it from its JSON record with ``PatternPoint(**doc)`` and
stay bit-identical to a fresh simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.units import to_mbps


@dataclass
class RankSample:
    """One rank's view of a pattern run (assembly-time convenience)."""

    rank: int
    elapsed_s: float
    availability: float
    payload_bytes: int
    msgs_sent: int
    interrupts: int


def _median(values: List[float]) -> float:
    """Median without numpy (keeps the record layer dependency-free)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class PatternPoint:
    """One pattern measurement across all ranks."""

    system: str
    pattern: str
    ranks: int
    topology: str
    msg_bytes: int
    work_interval_iters: int
    #: Aggregate availability: the median across ranks (robust to the
    #: wavefront's structurally idle corner ranks).
    availability: float
    #: Aggregate payload bandwidth (all ranks, both directions) over the
    #: slowest rank's window.
    bandwidth_Bps: float
    #: The slowest rank's measured window (simulated seconds).
    elapsed_s: float
    #: Measured iterations per rank.
    iterations: int
    #: Per-rank availability, indexed by rank.
    availability_per_rank: List[float] = field(default_factory=list)
    #: Per-rank measured window, indexed by rank.
    elapsed_per_rank: List[float] = field(default_factory=list)
    #: Messages sent inside the window, summed over ranks.
    msgs: int = 0
    #: Interrupt count delta, summed over ranks.
    interrupts: int = 0
    #: Allreduce algorithm (empty for non-collective patterns).
    algorithm: str = ""
    #: Replication summary (``repro.stats.summarize_replicates`` shape)
    #: when this point aggregates replicated sub-runs; ``None`` for
    #: single-shot points, and omitted from ``to_dict`` so seed exports
    #: stay byte-identical.
    replication: Optional[Dict[str, Any]] = None

    @property
    def bandwidth_MBps(self) -> float:
        """Bandwidth in the paper's MB/s."""
        return to_mbps(self.bandwidth_Bps)

    @property
    def availability_min(self) -> float:
        """Worst rank's availability."""
        return min(self.availability_per_rank)

    @property
    def availability_max(self) -> float:
        """Best rank's availability."""
        return max(self.availability_per_rank)

    def to_dict(self) -> Dict:
        """Plain-dict form (CSV/JSON export)."""
        d = asdict(self)
        if d.get("replication") is None:
            d.pop("replication", None)
        d["bandwidth_MBps"] = self.bandwidth_MBps
        d["availability_min"] = self.availability_min
        d["availability_max"] = self.availability_max
        return d
