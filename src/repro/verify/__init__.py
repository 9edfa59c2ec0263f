"""Simulation sanitizer: runtime invariant checking + fault injection.

COMB's figures are only as trustworthy as the simulator's modeling of MPI
progress semantics, so this package watches a running simulation for
states that can never legally occur — lost or duplicated messages, clocks
running backwards, negative eager-token counts, corrupted matching lists,
illegal ``MPI_Request`` transitions — and records each one as a
:class:`~repro.verify.monitors.Violation`.

The sanitizer reads the engine's trace stream and the world's
matching-queue events (see :mod:`repro.mpi.world`), so it is
*observation-only*: enabling it never changes simulated results
(enforced by ``tests/test_verify_golden_drift.py``), and when no
sanitizer is active every hook collapses to a single ``is not None``
check.

Usage::

    from repro.verify import Sanitizer, use_sanitizer

    san = Sanitizer()
    with use_sanitizer(san):
        point = run_polling(system, cfg)     # worlds auto-attach
    violations = san.finalize()              # [] on a healthy run

Deterministic fault injection (:class:`~repro.verify.faults.FaultInjector`)
corrupts a run on purpose — packet drop/duplicate/time-warp, NIC stall,
deferred interrupts, spurious completions — driven off named RNG
substreams so every failure reproduces from a single seed.  The test
suite uses it to prove each monitor actually detects its corruption
class.
"""

from .context import current_sanitizer, use_sanitizer
from .faults import FaultInjector, FaultPlan
from .monitors import (
    CausalityMonitor,
    ConservationMonitor,
    InvariantMonitor,
    LifecycleMonitor,
    MatchingMonitor,
    TokenMonitor,
    Violation,
    default_monitors,
)
from .sanitizer import Sanitizer, SanitizerTracer

__all__ = [
    "CausalityMonitor",
    "ConservationMonitor",
    "FaultInjector",
    "FaultPlan",
    "InvariantMonitor",
    "LifecycleMonitor",
    "MatchingMonitor",
    "Sanitizer",
    "SanitizerTracer",
    "TokenMonitor",
    "Violation",
    "current_sanitizer",
    "default_monitors",
    "use_sanitizer",
]
