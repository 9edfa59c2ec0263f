"""Parameter-sweep drivers for the two COMB methods.

Each point runs on a fresh world, so sweeps are embarrassingly independent
and fully deterministic.  The drivers build picklable
:class:`~repro.core.executor.PointTask` records and hand them to a
:class:`~repro.core.executor.SweepExecutor` — serial by default, parallel
and/or cached when the caller provides one.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..config import SystemConfig
from .executor import PointTask, SweepExecutor, current_executor
from .polling import PollingConfig, run_polling
from .pww import PwwConfig, run_pww
from .results import PollingPoint, PwwPoint, Series


def log_intervals(lo: float, hi: float, per_decade: int = 3) -> List[int]:
    """Log-spaced integer interval values from ``lo`` to ``hi`` inclusive.

    Adjacent grid values that round to the same integer are deduplicated
    (order-preserving), and both endpoints always survive the dedup.
    """
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    n = int(round(np.log10(hi / lo) * per_decade)) + 1
    raw = np.round(np.logspace(np.log10(lo), np.log10(hi), max(n, 2))).astype(int)
    # logspace is nondecreasing and rounding preserves that, so an
    # order-preserving adjacent dedup is a full dedup — and, unlike
    # ``np.unique``, it visibly keeps the rounded endpoints raw[0] and
    # raw[-1] in place.
    vals: List[int] = []
    for v in raw:
        iv = int(v)
        if iv >= 1 and (not vals or iv != vals[-1]):
            vals.append(iv)
    return vals


def polling_tasks(
    system: SystemConfig,
    msg_bytes: int,
    intervals: Sequence[int],
    base: Optional[PollingConfig] = None,
) -> List[PointTask]:
    """Task records for a polling sweep (one per interval)."""
    base = base or PollingConfig(msg_bytes=msg_bytes)
    return [
        PointTask(
            "polling",
            system,
            dataclasses.replace(base, msg_bytes=msg_bytes, poll_interval_iters=int(p)),
        )
        for p in intervals
    ]


def pww_tasks(
    system: SystemConfig,
    msg_bytes: int,
    intervals: Sequence[int],
    base: Optional[PwwConfig] = None,
) -> List[PointTask]:
    """Task records for a PWW sweep (one per work interval)."""
    base = base or PwwConfig(msg_bytes=msg_bytes)
    return [
        PointTask(
            "pww",
            system,
            dataclasses.replace(base, msg_bytes=msg_bytes, work_interval_iters=int(w)),
        )
        for w in intervals
    ]


def polling_sweep(
    system: SystemConfig,
    msg_bytes: int,
    intervals: Sequence[int],
    base: Optional[PollingConfig] = None,
    label: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
) -> Series:
    """Run the polling method across ``intervals`` for one message size."""
    series = Series(label or f"{system.name} {msg_bytes // 1024} KB")
    ex = current_executor(executor)
    series.points.extend(ex.run(polling_tasks(system, msg_bytes, intervals, base)))
    return series


def pww_sweep(
    system: SystemConfig,
    msg_bytes: int,
    intervals: Sequence[int],
    base: Optional[PwwConfig] = None,
    label: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
) -> Series:
    """Run the PWW method across work ``intervals`` for one message size."""
    series = Series(label or f"{system.name} {msg_bytes // 1024} KB")
    ex = current_executor(executor)
    series.points.extend(ex.run(pww_tasks(system, msg_bytes, intervals, base)))
    return series
