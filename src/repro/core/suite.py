"""The COMB suite driver: both methods plus derived analyses.

:class:`CombSuite` is the high-level entry point a user of the library
reaches for first::

    from repro import CombSuite, gm_system

    suite = CombSuite(gm_system())
    point = suite.polling(msg_bytes=100 * 1024, poll_interval_iters=10_000)
    curve = suite.polling_curve(msg_bytes=100 * 1024)
    print(suite.offload_report(msg_bytes=100 * 1024))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, cast

from ..config import SystemConfig
from .executor import PointTask, SweepExecutor, current_executor
from .polling import PollingConfig, run_polling
from .pww import PwwConfig, run_pww
from .results import PollingPoint, PwwPoint, Series
from .sweep import log_intervals, polling_sweep

#: Message sizes the paper sweeps (its "10 KB … 300 KB").
PAPER_SIZES = (10 * 1024, 50 * 1024, 100 * 1024, 300 * 1024)

#: Default poll-interval grid (paper: 10^1 … 10^8 loop iterations).
POLL_GRID = (1e1, 1e8)


@dataclass
class OffloadVerdict:
    """Outcome of the application-offload test (paper §4.1).

    A system *provides application offload* when, given a long enough work
    interval, the PWW wait phase collapses — communication finished during
    the work phase without library calls.
    """

    system: str
    msg_bytes: int
    offloaded: bool
    #: Wait time at a short work interval (communication-bound).
    wait_short_s: float
    #: Wait time at a work interval far exceeding the transfer time.
    wait_long_s: float
    #: Work-phase CPU overhead at the long interval (Figs 12–13 gap).
    overhead_long_s: float

    def summary(self) -> str:
        """One-line human-readable verdict."""
        kind = "provides" if self.offloaded else "does NOT provide"
        return (
            f"{self.system} ({self.msg_bytes // 1024} KB): {kind} application "
            f"offload (wait {self.wait_short_s * 1e6:.0f} µs → "
            f"{self.wait_long_s * 1e6:.0f} µs as work grows; work-phase "
            f"overhead {self.overhead_long_s * 1e6:.0f} µs)"
        )


class CombSuite:
    """COMB bound to one system preset.

    An optional :class:`~repro.core.executor.SweepExecutor` parallelizes
    and/or caches every measurement the suite runs; without one, each
    call runs on a fresh serial executor (see
    :func:`~repro.core.executor.current_executor`).
    """

    def __init__(self, system: SystemConfig,
                 executor: Optional[SweepExecutor] = None) -> None:
        self.system = system
        self.executor = executor

    def _executor(self) -> SweepExecutor:
        return current_executor(self.executor)

    # -------------------------------------------------------- single points
    def polling(self, **kwargs: Any) -> PollingPoint:
        """One polling-method point (kwargs feed :class:`PollingConfig`)."""
        task = PointTask("polling", self.system, PollingConfig(**kwargs))
        return cast(PollingPoint, self._executor().run_one(task))

    def pww(self, **kwargs: Any) -> PwwPoint:
        """One PWW point (kwargs feed :class:`PwwConfig`)."""
        task = PointTask("pww", self.system, PwwConfig(**kwargs))
        return cast(PwwPoint, self._executor().run_one(task))

    # -------------------------------------------------------------- curves
    def polling_curve(
        self,
        msg_bytes: int,
        lo: float = POLL_GRID[0],
        hi: float = POLL_GRID[1],
        per_decade: int = 2,
        base: Optional[PollingConfig] = None,
    ) -> Series:
        """Polling bandwidth/availability curve over a log interval grid."""
        return polling_sweep(
            self.system, msg_bytes, log_intervals(lo, hi, per_decade),
            base=base, executor=self.executor,
        )

    # ------------------------------------------------------------ analyses
    def offload_verdict(
        self,
        msg_bytes: int = 100 * 1024,
        short_iters: int = 10_000,
        long_iters: int = 10_000_000,
        wait_epsilon_s: float = 200e-6,
    ) -> OffloadVerdict:
        """Run the §4.1 application-offload test.

        Compares the PWW wait phase at a short and a very long work
        interval: offloaded systems drain the wait; library-polled systems
        keep paying the full transfer there.
        """
        short = self.pww(msg_bytes=msg_bytes, work_interval_iters=short_iters)
        long = self.pww(msg_bytes=msg_bytes, work_interval_iters=long_iters)
        return OffloadVerdict(
            system=self.system.name,
            msg_bytes=msg_bytes,
            offloaded=long.wait_s < max(wait_epsilon_s, 0.2 * short.wait_s),
            wait_short_s=short.wait_s,
            wait_long_s=long.wait_s,
            overhead_long_s=long.overhead_s,
        )

    def offload_report(self, msg_bytes: int = 100 * 1024) -> str:
        """Human-readable offload verdict."""
        return self.offload_verdict(msg_bytes=msg_bytes).summary()
