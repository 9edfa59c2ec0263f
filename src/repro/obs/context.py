"""Ambient observer resolution.

Mirrors :func:`repro.verify.context.use_sanitizer`: library code never
takes an observer argument — drivers make one ambient for the dynamic
extent of a run and every world built inside
(:func:`repro.mpi.world.build_world`) attaches it automatically.  With no
active observer the lookup is a single list check, so the default path
stays free of observation overhead.

An observer and a sanitizer may be ambient simultaneously; the world
builder puts a :class:`repro.sim.trace.MultiTracer` on the engine's
``trace`` that feeds both (see :mod:`repro.mpi.world`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from .observer import Observer

_active_stack: List["Observer"] = []


def current_observer() -> Optional["Observer"]:
    """The innermost ambient observer, or ``None`` (observation off)."""
    return _active_stack[-1] if _active_stack else None


@contextmanager
def use_observer(observer: Optional["Observer"]) -> Iterator[Optional["Observer"]]:
    """Make ``observer`` ambient for the dynamic extent of the block.

    ``None`` is accepted (and is a no-op) so callers can write
    ``with use_observer(maybe_observer):`` unconditionally.
    """
    if observer is None:
        yield None
        return
    _active_stack.append(observer)
    try:
        yield observer
    finally:
        _active_stack.pop()
