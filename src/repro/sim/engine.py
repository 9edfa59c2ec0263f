"""The discrete-event simulation engine.

:class:`Engine` owns the virtual clock and the pending-event heap.  Events
scheduled for the same timestamp are ordered by (priority, insertion
sequence), which makes every run fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple

from . import events as _events
from .errors import EmptySchedule, SimulationError
from .events import AllOf, AnyOf, Event, PRIORITY_NORMAL, Timeout
from .process import Process, ProcessGenerator

#: Infinity, used as the default run-until horizon.
INFINITY = float("inf")


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.
    trace:
        Optional :class:`repro.sim.trace.Tracer` receiving kernel events.
    """

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "trace",
                 "events_processed")

    def __init__(self, start_time: float = 0.0, trace=None):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.trace = trace
        #: Heap events dispatched so far — the cost model of the simulator
        #: itself.  Burst batching exists to shrink this number; perfbench
        #: and the event-count regression tests read it.
        self.events_processed = 0

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay_s: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay_s`` seconds from now."""
        return Timeout(self, delay_s, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # Alias matching SimPy naming, convenient for readers used to it.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------- scheduling
    def _enqueue(self, event: Event, priority: int, delay_s: float = 0.0) -> None:
        """Insert a triggered event into the pending heap."""
        if delay_s < 0.0 and self.trace is not None:
            # Scheduling in the past is a causality corruption the sanitizer
            # must see at the source; the float compare keeps the untraced
            # hot path free of any extra work.
            self.trace.record(self._now, "engine", "schedule_past", (delay_s,))
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay_s, priority, seq, event))

    def _enqueue_at(self, event: Event, priority: int, when_s: float) -> None:
        """Insert a triggered event at an *absolute* time (no ``now`` +
        ``delay`` round-trip, which costs a ulp the burst path can't
        afford when reproducing legacy event times exactly)."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when_s, priority, seq, event))

    def schedule_callback(
        self, delay_s: float, fn: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> Event:
        """Run ``fn()`` after ``delay_s`` seconds; returns the trigger event."""
        ev = self.timeout(delay_s)
        ev.callbacks.append(lambda _e: fn())
        return ev

    # -------------------------------------------------------------- execution
    def peek(self) -> float:
        """Time of the next scheduled event, or ``INFINITY`` if none."""
        return self._queue[0][0] if self._queue else INFINITY

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            when, _prio, _seq, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if self.trace is not None:
            self.trace.record_kernel(self._now, event)
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is empty;
        * a number — run until that simulation time (clock lands exactly on
          it even if no event is scheduled there);
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            stop_at = INFINITY
            stop_event = None
        elif isinstance(until, Event):
            stop_event = until
            stop_at = INFINITY
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self._now})"
                )

        # The event loop below is :meth:`step` inlined (minus the defensive
        # past-event check): this is the simulator's hottest code, and the
        # method-call + heap-access overhead per event is measurable at
        # production sweep scale.  Semantics are identical — keep the two
        # in sync.
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace  # set at construction only; safe to hoist
        n_done = 0
        try:
            if stop_event is not None:
                while not stop_event._processed:
                    if not queue:
                        raise SimulationError(
                            "simulation ran out of events before the awaited "
                            "event fired (deadlock?)"
                        )
                    when, _prio, _seq, event = pop(queue)
                    self._now = when
                    n_done += 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    if trace is not None:
                        trace.record_kernel(when, event)
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value
            while queue and queue[0][0] <= stop_at:
                when, _prio, _seq, event = pop(queue)
                self._now = when
                n_done += 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                if trace is not None:
                    trace.record_kernel(when, event)
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if stop_at != INFINITY:
                self._now = max(self._now, stop_at)
            return None
        finally:
            self.events_processed += n_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.9f} pending={len(self._queue)}>"


#: The pure-Python reference engine, importable regardless of backend.
PyEngine = Engine

if _events._BACKEND == "c":
    # The events module already imported the extension and rebound Event;
    # swap the engine too and hand over the engine-side classes.  Both
    # swaps key off the same flag, so the two C types always travel
    # together (a C Engine typechecks events against the C Event base).
    from repro import _simcore as _sc

    Engine = _sc.Engine  # type: ignore[assignment,misc]
    _sc._install(EmptySchedule=EmptySchedule, Process=Process)
