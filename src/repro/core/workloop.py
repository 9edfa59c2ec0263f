"""The calibrated work loop.

COMB's unit of "computation" is an iteration of an empty delay loop.  The
*dry run* phase times the loop with no communication at all; that figure is
the numerator of the availability metric:

    availability = time(work without messaging)
                   / time(work plus MPI calls while messaging)

The simulated CPU runs the loop at ``CpuConfig.work_iter_s`` per
iteration, so the dry time is that constant times the iteration count.
"""

from __future__ import annotations

from ..config import SystemConfig


def work_time(system: SystemConfig, iters: float) -> float:
    """Dry (no-communication) duration of ``iters`` loop iterations."""
    return iters * system.machine.cpu.work_iter_s
