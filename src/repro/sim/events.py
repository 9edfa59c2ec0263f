"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-graph design (same family as SimPy):
an :class:`Event` is a one-shot occurrence with an attached value; processes
are generators that ``yield`` events and are resumed when the event fires.

Only the pieces COMB's simulator needs are implemented, but they are
implemented completely: success/failure payloads, callbacks, composite
``any``/``all`` conditions, and timeouts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Engine

#: Scheduling priority for events that must run before normal events that
#: share the same timestamp (used by the engine for bookkeeping events).
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event moves through three states:

    * *pending* — created but not yet triggered;
    * *triggered* — :meth:`succeed` or :meth:`fail` has been called and the
      event sits in the engine's queue;
    * *processed* — the engine has popped it and run its callbacks.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        #: Callbacks invoked (in order) when the event is processed.  Each is
        #: called with the event itself as the only argument.  ``None`` once
        #: the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """``True`` if the event succeeded, ``False`` if it failed, ``None``
        while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed`, or the exception passed to
        :meth:`fail`.  Accessing it on a pending event is an error."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # --------------------------------------------------------------- triggers
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event successful and enqueue it for processing *now*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine._enqueue(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event failed and enqueue it for processing *now*.

        The exception propagates into every process waiting on the event; if
        no process waits, the engine raises it at the end of the step unless
        :meth:`defused` is set.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine._enqueue(self, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Prevent an unhandled failure of this event from crashing the run."""
        self._defused = True

    # ------------------------------------------------------------ composition
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.engine, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.engine, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed else
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


#: Sentinel marking "no value yet"; distinct from a legitimate ``None`` value.
_PENDING = object()

# ---------------------------------------------------------------------------
# Optional C-accelerated kernel (``repro._simcore``).  The pure-Python class
# above stays the reference implementation and the default; when the user
# opts in (``COMB_COMPILED=1``) and the extension has been built
# (``tools/build_compiled.py``), ``Event`` is rebound to the C type so every
# subclass below — and every importer — inherits the accelerated base.  The
# contract is bit identity: the C type replicates the heap key, the float
# arithmetic, callback order, and error messages exactly (enforced by the
# golden matrix, the traced-vs-bare suite, and step/run parity).
from repro import compiled as _compiled  # noqa: E402  (stdlib-only, no cycle)

#: The pure-Python reference class, importable regardless of backend.
PyEvent = Event

#: Which kernel backend this process runs: ``"python"`` or ``"c"``.
_BACKEND = "python"

if _compiled.requested():
    try:
        from repro import _simcore as _sc
    except ImportError:  # not built — transparent fallback to pure Python
        pass
    else:
        Event = _sc.Event  # type: ignore[assignment,misc]
        _BACKEND = "c"


class Timeout(Event):
    """An event that fires ``delay_s`` simulated seconds after creation."""

    __slots__ = ("delay_s",)

    def __init__(self, engine: "Engine", delay_s: float, value: Any = None):
        if delay_s < 0:
            raise ValueError(f"negative timeout delay_s: {delay_s!r}")
        super().__init__(engine)
        self.delay_s = delay_s
        self._ok = True
        self._value = value
        engine._enqueue(self, PRIORITY_NORMAL, delay_s)

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        raise SimulationError("a Timeout is triggered at creation time")

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        raise SimulationError("a Timeout is triggered at creation time")


def post(
    engine: "Engine",
    value: Any,
    callback: Callable[[Event], None],
    delay_s: float = 0.0,
    priority: int = PRIORITY_NORMAL,
) -> Event:
    """Schedule a pre-triggered event: after ``delay_s``, ``callback``
    runs with the event, whose ``_value`` is ``value``.

    The lean form of ``engine.timeout(delay_s)`` plus a closure: the same
    ``(when, priority, seq)`` heap key, without the wrapper class or a
    per-call lambda — hot model paths carry their continuation state in
    ``value`` and register a bound method.
    """
    ev = Event(engine)
    ev._ok = True
    ev._value = value
    ev.callbacks.append(callback)
    engine._enqueue(ev, priority, delay_s)
    return ev


class Condition(Event):
    """Composite event that fires when ``evaluate`` is satisfied.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value (insertion-ordered by original position).
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        engine: "Engine",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(engine)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate
        for ev in self._events:
            if ev.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev._processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(len(self._events), self._count):
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # A Timeout carries its value from construction, so "triggered" is
        # not the right filter — only events whose callbacks have run (i.e.
        # that actually fired on the timeline) belong in the result.
        return {ev: ev._value for ev in self._events if ev._processed and ev._ok}


class AllOf(Condition):
    """Fires when *all* constituent events have fired."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, lambda total, done: done == total, events)


class AnyOf(Condition):
    """Fires when *any* constituent event has fired."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, lambda total, done: done >= 1, events)


if _BACKEND == "c":
    # Hand the C types the Python-side classes they raise and construct
    # (deferred to module end so the classes exist).
    _sc._install(
        SimulationError=SimulationError,
        Timeout=Timeout,
        AllOf=AllOf,
        AnyOf=AnyOf,
        PENDING=_PENDING,
    )
