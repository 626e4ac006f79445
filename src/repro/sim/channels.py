"""Blocking bounded FIFO channel — the substrate of PEDF data links."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Scheduler

from .process import WaitEvent


class Fifo:
    """Bounded FIFO with blocking (coroutine) put/get.

    ``put`` / ``get`` are generators meant to be driven with ``yield from``
    inside a simulation process.  Non-blocking variants (``try_put``,
    ``try_get``) and direct mutation helpers (``force_put``, ``remove_at``,
    ``replace_at``) exist for the debugger, which must be able to inspect
    and *alter* link contents from outside any process (paper §III,
    "Altering the Normal Execution").
    """

    def __init__(self, scheduler: "Scheduler", capacity: int = 0, name: str = ""):
        if capacity < 0:
            raise SimulationError(f"negative fifo capacity: {capacity}")
        self._scheduler = scheduler
        self.capacity = capacity  # 0 = unbounded
        self.name = name or f"fifo@{id(self):x}"
        self._items: Deque[Any] = deque()
        self._not_empty = scheduler.event(f"{self.name}.not_empty")
        self._not_full = scheduler.event(f"{self.name}.not_full")
        self.total_put = 0
        self.total_got = 0

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity > 0 and len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def peek(self, index: int = 0) -> Any:
        """Read the item at ``index`` without consuming it."""
        return self._items[index]

    def snapshot(self) -> List[Any]:
        """Copy of the queued items, oldest first."""
        return list(self._items)

    # ------------------------------------------------------ blocking access

    def put(self, item: Any):
        """Coroutine: block while full, then enqueue ``item``."""
        while self.full:
            yield WaitEvent(self._not_full)
        self._enqueue(item)

    def get(self):
        """Coroutine: block while empty, then dequeue the oldest item."""
        while self.empty:
            yield WaitEvent(self._not_empty)
        return self._dequeue()

    # -------------------------------------------------- non-blocking access

    def try_put(self, item: Any) -> bool:
        if self.full:
            return False
        self._enqueue(item)
        return True

    def try_get(self) -> Optional[Any]:
        if self.empty:
            return None
        return self._dequeue()

    # --------------------------------------------- debugger-side alteration

    def force_put(self, item: Any, index: Optional[int] = None) -> None:
        """Insert an item regardless of capacity (debugger injection).

        ``index`` positions the item within the queue (default: tail).
        Wakes any consumer blocked on the empty queue.
        """
        if index is None:
            self._items.append(item)
        else:
            self._items.insert(index, item)
        self.total_put += 1
        self._not_empty.notify()

    def remove_at(self, index: int) -> Any:
        """Delete and return the item at ``index`` (debugger deletion)."""
        items = list(self._items)
        item = items.pop(index)
        self._items = deque(items)
        self._not_full.notify()
        return item

    def replace_at(self, index: int, item: Any) -> Any:
        """Swap the item at ``index`` (debugger modification)."""
        old = self._items[index]
        self._items[index] = item
        return old

    # ------------------------------------------------------------ internals

    def _enqueue(self, item: Any) -> None:
        self._items.append(item)
        self.total_put += 1
        self._not_empty.notify()

    def _dequeue(self) -> Any:
        item = self._items.popleft()
        self.total_got += 1
        self._not_full.notify()
        return item

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = self.capacity or "inf"
        return f"<Fifo {self.name!r} {len(self._items)}/{cap}>"
