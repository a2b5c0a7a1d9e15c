"""MPI receive matching: posted receives vs unexpected-message queue."""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim import Event

ANY_SOURCE = -1
ANY_TAG = None


class MatchQueue:
    """Per-node matching state for one communicator."""

    def __init__(self, sim, node: int = -1):
        self.sim = sim
        self.node = node
        self._unexpected: deque = deque()  # (src, tag, payload)
        self._posted: deque = deque()  # (source, tag, event)
        self.n_unexpected = 0
        self.n_posted = 0

    def deliver(self, src: int, tag: Any, payload: Any) -> None:
        """Called by the comm thread when an MPI message arrives."""
        pb = self.sim.probe
        for i, (source, want, event) in enumerate(self._posted):
            if (source == ANY_SOURCE or source == src) and (want is ANY_TAG or want == tag):
                del self._posted[i]
                if pb is not None and "mpi" in pb.heard:
                    pb.instant(
                        "mpi", "match", node=self.node, src=src, tag=str(tag),
                        outcome="posted",
                    )
                event.succeed((src, tag, payload))
                return
        self.n_unexpected += 1
        if pb is not None and "mpi" in pb.heard:
            pb.instant(
                "mpi", "match", node=self.node, src=src, tag=str(tag),
                outcome="unexpected", depth=len(self._unexpected) + 1,
            )
        self._unexpected.append((src, tag, payload))

    def post(self, source: int, tag: Any) -> Event:
        """Post a receive; returns an event firing with (src, tag, payload)."""
        ev = Event(self.sim, name="mpi-recv")
        pb = self.sim.probe
        for i, (src, t, payload) in enumerate(self._unexpected):
            if (source == ANY_SOURCE or source == src) and (tag is ANY_TAG or tag == t):
                del self._unexpected[i]
                if pb is not None and "mpi" in pb.heard:
                    pb.instant(
                        "mpi", "recv-post", node=self.node, tag=str(tag),
                        outcome="drained",
                    )
                ev.succeed((src, t, payload))
                return ev
        self.n_posted += 1
        if pb is not None and "mpi" in pb.heard:
            pb.instant(
                "mpi", "recv-post", node=self.node, tag=str(tag), outcome="queued"
            )
        self._posted.append((source, tag, ev))
        return ev

    @property
    def pending_unexpected(self) -> int:
        return len(self._unexpected)

    @property
    def pending_posted(self) -> int:
        return len(self._posted)
