"""The sanitizer: routes trace records into invariant monitors.

:class:`Sanitizer` owns a set of monitors and a :class:`SanitizerTracer`
— a storage-free :class:`~repro.sim.trace.Tracer` subclass that forwards
every record to :meth:`Sanitizer.dispatch` instead of accumulating it, so
checked runs stay O(1) in memory with respect to trace volume.  Dispatch
calls only the monitors that read the record's kind
(:attr:`~repro.verify.monitors.InvariantMonitor.kinds`), from a route
built on the first record of each kind.  Worlds built while the
sanitizer is ambient (see :mod:`repro.verify.context`) attach themselves:
the engine's ``trace`` carries engine/NIC/link/MPI instrumentation, and
the world builder hands each matching-queue mutation to
:meth:`Sanitizer.record_queue` as a ``q_*`` record whose detail is the
queue's handle (see :mod:`repro.mpi.world`).

The sanitizer never influences the simulation: all hooks are passive
reads of state the simulator computes anyway, which is what keeps checked
output bit-identical to unchecked output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.trace import Tracer, TraceRecord
from .monitors import CausalityMonitor, InvariantMonitor, Violation, default_monitors


class SanitizerTracer(Tracer):
    """Dispatch-only tracer: forwards records, stores nothing.

    Also performs the cheapest causality check inline: the engine calls
    :meth:`record_kernel` for *every* processed event, and the virtual
    clock must never step backwards between them.
    """

    def __init__(self, sanitizer: "Sanitizer") -> None:
        self._sanitizer = sanitizer
        self._last_kernel_t = float("-inf")

    def record(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        self._sanitizer.dispatch(TraceRecord(time, source, kind, detail))

    def record_kernel(self, time: float, event: Any) -> None:
        if time < self._last_kernel_t:
            self._sanitizer.on_clock_backwards(time, self._last_kernel_t)
        self._last_kernel_t = time


class Sanitizer:
    """Runtime invariant checker for simulation runs.

    Parameters
    ----------
    monitors:
        Monitor instances to run (default: one of each built-in).  The
        set is fixed at construction: each kind's route is built from it
        on that kind's first record.
    quiescent:
        Declare that runs under this sanitizer drain completely (every
        request waited, nothing in flight at the end).  Enables the
        stricter finalize-stage conservation/accounting checks; leave
        ``False`` for benchmark runs, which legitimately stop mid-flight.
    """

    def __init__(
        self,
        monitors: Optional[List[InvariantMonitor]] = None,
        quiescent: bool = False,
    ) -> None:
        self.monitors = default_monitors() if monitors is None else list(monitors)
        self.quiescent = quiescent
        self.tracer = SanitizerTracer(self)
        self.worlds: List[Any] = []
        #: Record kind -> the ``on_record`` of every monitor reading it,
        #: in monitor order.
        self._routes: Dict[str, Tuple[Callable[[TraceRecord], None], ...]] = {}
        self._causality = next(
            (m for m in self.monitors if isinstance(m, CausalityMonitor)), None
        )
        self._finalized = False

    # ------------------------------------------------------------ attachment
    def install(self, world: Any) -> None:
        """Register a freshly built world for the end-of-run checks.

        Called automatically by :func:`repro.mpi.world.build_world` when
        this sanitizer is ambient and provided the world's tracer.
        """
        self.worlds.append(world)

    def record_queue(self, time: float, source: str, kind: str,
                     handle: Any) -> None:
        """One matching-queue event; the monitors read the handle's
        request/message ids and completion state."""
        self.tracer.record(time, source, kind, handle)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, rec: TraceRecord) -> None:
        """Feed one record to every monitor that reads its kind."""
        route = self._routes.get(rec.kind)
        if route is None:
            route = self._routes[rec.kind] = tuple(
                m.on_record for m in self.monitors
                if m.kinds is None or rec.kind in m.kinds
            )
        for on_record in route:
            on_record(rec)

    def on_clock_backwards(self, when: float, last: float) -> None:
        """Kernel-clock regression hook (from :class:`SanitizerTracer`)."""
        if self._causality is not None:
            self._causality.on_kernel_regression(when, last)

    # --------------------------------------------------------------- results
    def finalize(self) -> List[Violation]:
        """Run end-of-run checks on every attached world; return all
        violations collected so far (idempotent)."""
        if not self._finalized:
            self._finalized = True
            for world in self.worlds:
                for m in self.monitors:
                    m.finalize(world, self.quiescent)
        return self.violations

    @property
    def violations(self) -> List[Violation]:
        """All violations across monitors, in monitor order."""
        out: List[Violation] = []
        for m in self.monitors:
            out.extend(m.violations)
        return out

    def counts(self) -> Dict[str, int]:
        """Violation count per monitor name (zero entries included)."""
        return {m.name: len(m.violations) for m in self.monitors}

    def summary(self) -> str:
        """One-line human summary, e.g. for the CLI."""
        total = sum(len(m.violations) for m in self.monitors)
        if total == 0:
            return "sanitizer: all invariants held (0 violations)"
        per = ", ".join(
            f"{name}={n}" for name, n in self.counts().items() if n
        )
        return f"sanitizer: {total} violation(s) [{per}]"
