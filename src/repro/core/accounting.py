"""Process-local simulation cost accounting.

The engine counts every heap event it dispatches
(:attr:`repro.sim.engine.Engine.events_processed`) — the cost model of
the simulator itself, and the number burst batching and quiescence
fast-forward exist to shrink.  Each engine dies with its world, so the
method runners deposit their final counts here.  The sweep executor's
worker entry drains the tally after every point, in whichever process
simulated it, and returns the count with the point; the parent sums
them into the metrics registry (``sim.events_processed``) and
``BENCH_<n>.json`` records the total per trajectory point.
"""

from __future__ import annotations

_events_processed = 0


def tally_events(n: int) -> None:
    """Add one finished engine's dispatched-event count to the tally."""
    global _events_processed
    # Process-local: each worker's tally is drained after every point and
    # returned with it (see module docstring).
    _events_processed += n  # comb-lint: disable=EXEC001


def drain_events() -> int:
    """Return the tally accumulated since the last drain, and reset it."""
    global _events_processed
    n = _events_processed
    # Called at the end of every point in the process that simulated it,
    # so no count outlives its point: serial and pooled sweeps agree.
    _events_processed = 0  # comb-lint: disable=EXEC001
    return n
