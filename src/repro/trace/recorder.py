"""The bounded trace recorder.

Lifecycle::

    rec = TraceRecorder(sim, capacity=1 << 16)   # subscribes to sim.probe
    ... run the program ...
    events = rec.drain()                          # or iterate rec.events

The recorder is a subscriber of the simulation's probe bus
(:mod:`repro.sim.probe` documents the one instrumentation pattern): it
consumes every kind of its :attr:`~TraceRecorder.categories` (read when
the bus resolves a kind: set them before attaching) plus ``kernel/step`` for
queue-depth sampling.  :meth:`instant`, :meth:`span` and :meth:`counter`
record directly, for exporters and tests that build a ring by hand.

The ring is a ``deque(maxlen=capacity)``: when full, the *oldest* events
are evicted (``n_dropped`` counts them), so memory is bounded by the
configured capacity regardless of run length, and the tail of the run —
usually what you are debugging — is what survives.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.sim.probe import Subscriber
from repro.trace.events import TraceEvent, DEFAULT_CATEGORIES, CAT_COUNTER


class TraceRecorder(Subscriber):
    """Bounded ring buffer of :class:`TraceEvent`, bound to one simulator.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose clock stamps events;
        the recorder subscribes to ``sim.probe`` unless ``attach=False``
        (:meth:`attach` / :meth:`detach` do it later).
    capacity : ring size in events; oldest events are evicted when full.
    categories : set of category constants to record;
        ``None`` means :data:`~repro.trace.events.DEFAULT_CATEGORIES`
        (everything except the noisy kernel-scheduler category).
    queue_stride : sample the simulator event-queue depth as a counter
        series every this-many processed events (0 disables sampling).
        The event loop states ``kernel/step`` once per processed event
        while a recorder is attached.
    """

    __slots__ = (
        "sim", "capacity", "categories", "enabled", "n_emitted", "_ring",
        "queue_stride", "_step_count",
    )

    def __init__(
        self,
        sim,
        capacity: int = 1 << 16,
        categories: Optional[Iterable[str]] = None,
        attach: bool = True,
        queue_stride: int = 64,
    ):
        if capacity <= 0:
            raise ValueError(f"trace ring capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.categories: FrozenSet[str] = (
            DEFAULT_CATEGORIES if categories is None else frozenset(categories)
        )
        #: master switch; ``False`` makes emit calls record nothing
        self.enabled = True
        #: events offered and accepted (before eviction)
        self.n_emitted = 0
        self._ring: deque = deque(maxlen=capacity)
        if queue_stride < 0:
            raise ValueError(f"queue_stride must be >= 0, got {queue_stride}")
        self.queue_stride = queue_stride
        self._step_count = 0
        if attach:
            self.attach()

    # -- subscription -----------------------------------------------------
    def handler_for(self, cat: str, name: str):
        if (cat, name) == ("kernel", "step"):
            return self._on_step
        if cat in self.categories:
            return partial(self._record, cat, name)
        return None

    # -- emission -------------------------------------------------------
    def _record(self, cat, name, args, node=-1, tid=None, t0=None, ph=None) -> None:
        if not self.enabled or cat not in self.categories:
            return
        self.n_emitted += 1
        now = self.sim.now
        if tid is None:
            proc = self.sim.active_process
            tid = proc.label if proc is not None else "main"
        if t0 is None:
            ev = TraceEvent(now, cat, name, node, tid, None, args or None, ph)
        else:
            ev = TraceEvent(t0, cat, name, node, tid, max(0.0, now - t0), args or None)
        self._ring.append(ev)

    def instant(
        self, cat: str, name: str, node: int = -1, tid: Optional[str] = None, **args: Any
    ) -> None:
        """Record a point event at the current virtual time."""
        self._record(cat, name, args, node, tid)

    def span(
        self,
        cat: str,
        name: str,
        t0: float,
        node: int = -1,
        tid: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span that started at virtual time *t0*."""
        self._record(cat, name, args, node, tid, t0)

    def counter(
        self, cat: str, name: str, node: int = -1, tid: str = "counters", **values: Any
    ) -> None:
        """Record one sample of a counter series (``ph:"C"`` on export).

        *values* are the numeric series values at the current virtual time;
        Chrome/Perfetto stack multiple keys of one counter name.
        """
        self._record(cat, name, values, node, tid, None, "C")

    def _on_step(self, now: float, queue_depth: int) -> None:
        """``kernel/step``, once per processed event: samples the
        pending-event count every :attr:`queue_stride` events."""
        stride = self.queue_stride
        if not stride:
            return
        self._step_count += 1
        if self._step_count % stride == 0:
            self.counter(CAT_COUNTER, "queue-depth", depth=queue_depth)

    # -- inspection -----------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first (spans ordered by start)."""
        return sorted(self._ring, key=lambda e: e.ts)

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.n_emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def drain(self) -> List[TraceEvent]:
        """Return all buffered events (oldest first) and clear the ring."""
        out = self.events
        self._ring.clear()
        return out

    def counts_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self._ring:
            out[ev.cat] = out.get(ev.cat, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder {len(self._ring)}/{self.capacity} events, "
            f"{self.n_dropped} dropped, cats={sorted(self.categories)}>"
        )
