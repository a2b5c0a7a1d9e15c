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

The ring is a set of parallel columns — ``ts`` / ``dur`` as
``array('d')`` (``NaN`` = an instant), ``node`` as ``array('i')``, a
reference to the stated ``tid``, a tuple of argument values, and one
shared *kind* tuple ``(cat, name, ph, argument names)`` per distinct
combination — so a recorded fact costs a few dozen bytes, not a live
:class:`TraceEvent` and a dict.  :class:`TraceEvent` records are built
only on read (:attr:`~TraceRecorder.events`, :meth:`~TraceRecorder.drain`).
When full, the ring overwrites its *oldest* row (``n_dropped`` counts
them), so memory is bounded by the configured capacity regardless of run
length, and the tail of the run — usually what you are debugging — is
what survives.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.sim.probe import Subscriber
from repro.trace.events import TraceEvent, DEFAULT_CATEGORIES, CAT_COUNTER

_INF = float("inf")
_NAN = float("nan")


class TraceRecorder(Subscriber):
    """Bounded ring of recorded facts, bound to one simulator.

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
        series every this-many processed events, counted from the first
        event after :meth:`attach` (0 disables sampling).  The event loop
        states ``kernel/step`` only on the event the recorder says is due.
    """

    __slots__ = (
        "sim", "capacity", "categories", "enabled", "n_emitted",
        "queue_stride", "_next_sample",
        "_head", "_ts", "_dur", "_node", "_kind", "_tid", "_values", "_kinds",
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
        self._clear()
        #: ``(cat, name, ph, argument names)`` -> itself: one shared tuple
        #: per distinct kind of row
        self._kinds: Dict[tuple, tuple] = {}
        if queue_stride < 0:
            raise ValueError(f"queue_stride must be >= 0, got {queue_stride}")
        self.queue_stride = queue_stride
        #: ``events_processed`` of the next queue-depth sample; ``None``
        #: until the first step after :meth:`attach` sets the origin
        self._next_sample: Optional[int] = None
        if attach:
            self.attach()

    def _clear(self) -> None:
        #: the row the next fact overwrites once the ring is full
        self._head = 0
        self._ts = array("d")
        self._dur = array("d")
        self._node = array("i")
        self._kind: List[tuple] = []
        self._tid: List[str] = []
        self._values: List[tuple] = []

    # -- subscription -----------------------------------------------------
    def attach(self):
        self._next_sample = None
        return super().attach()

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
            ts, dur = now, _NAN
        else:
            ts, dur, ph = t0, max(0.0, now - t0), None
        kind = (cat, name, ph, tuple(args))
        kind = self._kinds.setdefault(kind, kind)
        values = tuple(args.values())
        i = self._head
        if len(self._ts) < self.capacity:
            self._ts.append(ts)
            self._dur.append(dur)
            self._node.append(node)
            self._kind.append(kind)
            self._tid.append(tid)
            self._values.append(values)
        else:
            self._ts[i] = ts
            self._dur[i] = dur
            self._node[i] = node
            self._kind[i] = kind
            self._tid[i] = tid
            self._values[i] = values
            self._head = (i + 1) % self.capacity

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

    def _on_step(self, now: float, queue_depth: int):
        """``kernel/step``: samples the pending-event count on every
        :attr:`queue_stride`-th event since attaching; returns the next
        due ``(events_processed, virtual time)``."""
        stride = self.queue_stride
        if not stride:
            return _INF, _INF
        n = self.sim.events_processed
        if self._next_sample is None:
            self._next_sample = n - 1 + stride
        if n >= self._next_sample:
            self.counter(CAT_COUNTER, "queue-depth", depth=queue_depth)
            self._next_sample = n + stride
        return self._next_sample, _INF

    # -- inspection -----------------------------------------------------
    def _row(self, i: int) -> TraceEvent:
        dur = self._dur[i]
        cat, name, ph, keys = self._kind[i]
        return TraceEvent(
            self._ts[i], cat, name, self._node[i], self._tid[i],
            None if dur != dur else dur,
            dict(zip(keys, self._values[i])) if keys else None,
            ph,
        )

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first (spans ordered by start)."""
        n, head = len(self._ts), self._head
        oldest_first = [*range(head, n), *range(head)]
        oldest_first.sort(key=self._ts.__getitem__)
        return [self._row(i) for i in oldest_first]

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.n_emitted - len(self._ts)

    def __len__(self) -> int:
        return len(self._ts)

    def drain(self) -> List[TraceEvent]:
        """Return all buffered events (oldest first) and clear the ring."""
        out = self.events
        self._clear()
        return out

    def counts_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        head = self._head
        for cat, *_ in self._kind[head:] + self._kind[:head]:
            out[cat] = out.get(cat, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder {len(self._ts)}/{self.capacity} events, "
            f"{self.n_dropped} dropped, cats={sorted(self.categories)}>"
        )
