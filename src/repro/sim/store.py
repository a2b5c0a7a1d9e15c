"""FIFO message store (unbounded channel).

Models per-node inboxes: message delivery ``put``s into the store; the
communication thread ``get``s in arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.events import Event


class Store:
    """Unbounded FIFO of items with event-based ``get``."""

    def __init__(self, sim, name: str = "store"):
        self.sim = sim
        self.name = name
        self._get_name = f"get:{name}"
        self._items: deque = deque()
        self._getters: deque = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest waiting getter (if any)."""
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev
