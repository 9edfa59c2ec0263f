"""Bounded ring buffer for trace events.

Long sweeps can emit millions of events; an unbounded list would make
tracing a memory hazard at production scale.  The ring keeps the *newest*
``capacity`` items and counts what it overwrote, so exporters can state
their truncation honestly instead of silently presenting a partial
timeline as complete.
"""

from __future__ import annotations

from typing import Any, Iterator, List


class RingBuffer:
    """Fixed-capacity FIFO that overwrites its oldest entries when full.

    Iteration yields items oldest-to-newest.  :attr:`dropped` counts how
    many items have been overwritten since construction (0 until the
    buffer wraps).
    """

    __slots__ = ("capacity", "dropped", "_items", "_head")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Items overwritten (lost) since construction.
        self.dropped = 0
        self._items: List[Any] = []
        self._head = 0  # index of the oldest item once the buffer is full

    def append(self, item: Any) -> None:
        """Add ``item``, evicting the oldest entry if at capacity."""
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._head] = item
            self._head += 1
            if self._head == self.capacity:
                self._head = 0
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        if self._head == 0:
            return iter(list(self._items))
        return iter(self._items[self._head:] + self._items[: self._head])

    def to_list(self) -> List[Any]:
        """The retained items, oldest first."""
        return list(self)

    def clear(self) -> None:
        """Drop every retained item (``dropped`` keeps its count)."""
        self._items.clear()
        self._head = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RingBuffer {len(self._items)}/{self.capacity}"
            f" dropped={self.dropped}>"
        )
