"""Ambient sanitizer resolution.

Mirrors :func:`repro.obs.context.use_observer`: library code (most
importantly :func:`repro.mpi.world.build_world`) never takes a sanitizer
argument — drivers make one ambient for the dynamic extent of a run and
every world built inside attaches itself automatically.  With no active
sanitizer the lookup is a single list check, so the default path stays
free of checking overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from .sanitizer import Sanitizer

_active_stack: List["Sanitizer"] = []


def current_sanitizer() -> Optional["Sanitizer"]:
    """The innermost ambient sanitizer, or ``None`` (checking disabled)."""
    return _active_stack[-1] if _active_stack else None


@contextmanager
def use_sanitizer(
    sanitizer: Optional["Sanitizer"],
) -> Iterator[Optional["Sanitizer"]]:
    """Make ``sanitizer`` ambient for the dynamic extent of the block.

    ``None`` is accepted (and is a no-op) so callers can write
    ``with use_sanitizer(maybe_sanitizer):`` unconditionally.
    """
    if sanitizer is None:
        yield None
        return
    _active_stack.append(sanitizer)
    try:
        yield sanitizer
    finally:
        _active_stack.pop()
