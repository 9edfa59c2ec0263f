"""Result records produced by the COMB methods."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..sim.units import to_mbps


@dataclass
class PollingPoint:
    """One polling-method measurement (fixed system, size, poll interval)."""

    system: str
    msg_bytes: int
    poll_interval_iters: int
    #: CPU availability: time(work without messaging) / wall time.
    availability: float
    #: Aggregate payload bandwidth observed at the worker (both directions).
    bandwidth_Bps: float
    #: Wall-clock length of the measurement window (simulated seconds).
    elapsed_s: float
    #: Work-loop iterations executed inside the window.
    iters: float
    #: Poll (MPI_Test) boundaries inside the window.
    polls: int
    #: Messages completed inside the window (sends + receives).
    msgs: int
    #: Worker-side interrupt count delta (0 for OS-bypass transports).
    interrupts: int = 0
    #: Replication summary (``repro.stats.summarize_replicates`` shape)
    #: when this point aggregates replicated sub-runs; ``None`` for
    #: single-shot points, and omitted from ``to_dict`` so seed exports
    #: stay byte-identical.
    replication: Optional[Dict[str, Any]] = None
    #: Availability of each CPU of an SMP worker node: index 0 is
    #: :attr:`availability` (the CPU shared with the worker and the
    #: interrupts), the rest are compute loads.  Empty on one-CPU nodes,
    #: and then omitted from ``to_dict`` like :attr:`replication`.
    availability_per_cpu: List[float] = field(default_factory=list)

    @property
    def bandwidth_MBps(self) -> float:
        """Bandwidth in the paper's MB/s."""
        return to_mbps(self.bandwidth_Bps)

    def to_dict(self) -> dict:
        """Plain-dict form (CSV/JSON export)."""
        d = asdict(self)
        if d.get("replication") is None:
            d.pop("replication", None)
        if not d["availability_per_cpu"]:
            del d["availability_per_cpu"]
        d["bandwidth_MBps"] = self.bandwidth_MBps
        return d


@dataclass
class PwwPoint:
    """One post-work-wait measurement (fixed system, size, work interval)."""

    system: str
    msg_bytes: int
    work_interval_iters: int
    availability: float
    bandwidth_Bps: float
    elapsed_s: float
    batches: int
    #: Mean wall-clock duration of the non-blocking post phase, per batch.
    post_s: float
    #: Mean wall-clock duration of the work phase, per batch ("work with
    #: message handling", Figs 12–13).
    work_s: float
    #: Mean wall-clock duration of the wait phase, per batch.
    wait_s: float
    #: Work-phase duration with no communication at all ("work only").
    work_dry_s: float
    #: Messages per batch per direction.
    batch_msgs: int = 1
    #: MPI_Test calls inserted in the work phase (Fig 17 variant).
    tests_in_work: int = 0
    interrupts: int = 0
    #: Replication summary; see :class:`PollingPoint.replication`.
    replication: Optional[Dict[str, Any]] = None

    @property
    def bandwidth_MBps(self) -> float:
        """Bandwidth in the paper's MB/s."""
        return to_mbps(self.bandwidth_Bps)

    @property
    def post_per_msg_s(self) -> float:
        """Post-phase time per message posted (2 × batch per batch)."""
        return self.post_s / (2 * self.batch_msgs)

    @property
    def overhead_s(self) -> float:
        """Work-phase stretch caused by communication (Figs 12–13 gap)."""
        return self.work_s - self.work_dry_s

    def to_dict(self) -> dict:
        """Plain-dict form (CSV/JSON export)."""
        d = asdict(self)
        if d.get("replication") is None:
            d.pop("replication", None)
        d["bandwidth_MBps"] = self.bandwidth_MBps
        d["post_per_msg_s"] = self.post_per_msg_s
        d["overhead_s"] = self.overhead_s
        return d


@dataclass
class Series:
    """A labelled sequence of measurement points (one curve in a figure)."""

    label: str
    points: List[object] = field(default_factory=list)

    def xs(self, attr: str) -> List[float]:
        """Extract ``attr`` across points."""
        return [getattr(p, attr) for p in self.points]

    def __iter__(self) -> Iterator[object]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)
