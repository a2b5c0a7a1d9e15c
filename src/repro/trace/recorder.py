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

The ring is a set of parallel columns, so a recorded fact holds only
numbers and shared references, never a Python object of its own:

- ``ts`` / ``dur`` in ``array('d')`` (``NaN`` = an instant), ``node`` in
  ``array('i')``, and a *kind* code and a ``tid`` code in ``array('H')``
  (the tids a :class:`~repro.util.codes.CodedColumn`);
- the row's int, float and bool arguments packed in one ``bytearray``
  column (8 bytes an int or float, 1 a bool), and its other arguments
  (strings, tuples, ``None`` ...) by reference in one object column; each
  row's values are contiguous, in row order.

A kind code names one interned *schema* ``(cat, name, ph, argument
names, argument value types)``.  Its :class:`struct.Struct` packs and
unpacks the row's numbers — its size is the row's stride in the numeric
column — so an int comes back an int and a bool a bool.  An argument
the column cannot hold exactly (an int outside int64, a NaN) or of any
other type goes to the object column.  :class:`TraceEvent` records are
built only on read (:attr:`~TraceRecorder.events`,
:meth:`~TraceRecorder.drain`).  When full, the ring overwrites its
*oldest* row (``n_dropped`` counts them), so memory is bounded by the
configured capacity regardless of run length (the argument columns
keep evicted values until they are half dead), and the tail of the
run — usually what you are debugging — is what survives.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import chain
from math import isnan
from operator import attrgetter, itemgetter
from struct import Struct
from struct import error as StructError
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.sim.probe import Subscriber
from repro.trace.events import TraceEvent, DEFAULT_CATEGORIES, CAT_COUNTER
from repro.util.codes import CodedColumn

_INF = float("inf")
_NAN = float("nan")
_BY_TS = attrgetter("ts")
#: an argument value type -> its struct code in the numeric column; any
#: other type goes to the object column
_PACKED = {int: "q", float: "d", bool: "?"}


class _Schema:
    """One interned kind of row: ``(cat, name, ph, argument names)`` and
    where each argument's value is kept.  ``nums`` / ``objs`` read the
    row's numeric / object values out of its argument dict (``None``:
    it has none), ``packer`` packs the numbers (its ``size`` is the row's
    stride in the numeric column), and ``in_objs`` says per argument
    which column it is read back from."""

    __slots__ = ("code", "cat", "name", "ph", "keys", "in_objs", "packer",
                 "n_nums", "n_objs", "nums", "objs", "floats")

    def __init__(self, code: int, cat, name, ph, keys, types):
        self.code = code
        self.cat, self.name, self.ph, self.keys = cat, name, ph, keys
        self.in_objs = tuple([t not in _PACKED for t in types])
        num_keys = [k for k, t in zip(keys, types) if t in _PACKED]
        obj_keys = [k for k, t in zip(keys, types) if t not in _PACKED]
        self.packer = Struct("=" + "".join([_PACKED[t] for t in types if t in _PACKED]))
        # an itemgetter of one key returns the value, of more a tuple
        self.n_nums, self.n_objs = len(num_keys), len(obj_keys)
        self.nums = itemgetter(*num_keys) if num_keys else None
        self.objs = itemgetter(*obj_keys) if obj_keys else None
        float_keys = [k for k, t in zip(keys, types) if t is float]
        #: the float arguments, to keep a NaN out of the numeric column
        self.floats = (lambda args: [args[k] for k in float_keys]) if float_keys else None

    def pack(self, args: dict) -> bytes:
        """The row's numbers, packed (``b""`` for none); raises
        :class:`struct.error` for a value the numeric column cannot hold."""
        if self.floats is not None and any(map(isnan, self.floats(args))):
            raise StructError("NaN")
        if self.n_nums == 1:
            return self.packer.pack(self.nums(args))
        return self.packer.pack(*self.nums(args)) if self.n_nums else b""


def _storable_types(types: tuple, values) -> tuple:
    """*types* with ``object`` wherever the numeric column cannot hold the
    value exactly — an int outside int64, a NaN — so it goes to the
    object column instead."""
    out = []
    for t, v in zip(types, values):
        if (t is int and not -(1 << 63) <= v < 1 << 63) or (t is float and v != v):
            t = object
        out.append(t)
    return tuple(out)


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
        "_head", "_ts", "_dur", "_node", "_kind", "_tid", "_nums", "_objs",
        "_nums_start", "_objs_start", "_schemas", "_schema_list",
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
        #: per row, its schema's code and its tid
        self._kind = array("H")
        self._tid = CodedColumn()
        #: the rows' packed numbers and their other argument values, the
        #: oldest row's first at ``_nums_start`` / ``_objs_start``; evicted
        #: rows' values precede them until the column is compacted
        self._nums = bytearray()
        self._objs: List[Any] = []
        self._nums_start = self._objs_start = 0
        #: ``(cat, name, ph, *argument names, *argument value types)`` ->
        #: its schema; ``_schema_list[code]`` is the schema of that code
        self._schemas: Dict[tuple, _Schema] = {}
        self._schema_list: List[_Schema] = []

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
        key = (cat, name, ph, *args, *map(type, args.values()))
        sch = self._schemas.get(key) or self._schema(key, len(args))
        try:
            packed = sch.pack(args)
        except StructError:  # a value the numeric column cannot hold
            sch = self._schema(key, len(args), args)
            packed = sch.pack(args)
        tids = self._tid
        tc = tids.index.get(tid)
        if tc is None:
            tc = tids.code(tid)
        i = self._head
        if len(self._ts) < self.capacity:
            self._ts.append(ts)
            self._dur.append(dur)
            self._node.append(node)
            self._kind.append(sch.code)
            tids.codes.append(tc)
        else:
            self._evict(self._schema_list[self._kind[i]])
            self._ts[i] = ts
            self._dur[i] = dur
            self._node[i] = node
            self._kind[i] = sch.code
            tids.codes[i] = tc
            self._head = (i + 1) % self.capacity
        if packed:
            self._nums += packed
        if sch.objs is not None:
            if sch.n_objs == 1:
                self._objs.append(sch.objs(args))
            else:
                self._objs.extend(sch.objs(args))

    def _schema(self, key: tuple, n: int, args: Optional[dict] = None) -> _Schema:
        """The schema of *key* ``(cat, name, ph, *names, *types)`` of *n*
        arguments, interned on first use; with *args*, the schema that
        sends each of their values the numeric column cannot hold to the
        object column."""
        if args is not None:
            key = key[:3 + n] + _storable_types(key[3 + n:], args.values())
            sch = self._schemas.get(key)
            if sch is not None:
                return sch
        sch = self._schemas[key] = _Schema(
            len(self._schema_list), *key[:3], key[3:3 + n], key[3 + n:])
        self._schema_list.append(sch)
        if sch.code == 0x10000:
            self._kind = array("I", self._kind)
        return sch

    def _evict(self, sch: _Schema) -> None:
        """Drop the oldest row's argument values (of schema *sch*); a
        column is compacted once its dead prefix outgrows its live part."""
        start = self._nums_start + sch.packer.size
        if start > len(self._nums) >> 1:
            del self._nums[:start]
            start = 0
        self._nums_start = start
        start = self._objs_start + sch.n_objs
        if start > len(self._objs) >> 1:
            del self._objs[:start]
            start = 0
        self._objs_start = start

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
    def _rows(self) -> List[TraceEvent]:
        """Every row as a :class:`TraceEvent`, oldest first."""
        ts, dur, node, kind, tid = self._ts, self._dur, self._node, self._kind, self._tid
        schemas, nums, objs = self._schema_list, self._nums, self._objs
        at, oi = self._nums_start, self._objs_start
        out = []
        for i in chain(range(self._head, len(ts)), range(self._head)):
            sch = schemas[kind[i]]
            args = None
            if sch.keys:
                packed = iter(sch.packer.unpack_from(nums, at))
                at += sch.packer.size
                values = []
                for in_objs in sch.in_objs:
                    if in_objs:
                        values.append(objs[oi])
                        oi += 1
                    else:
                        values.append(next(packed))
                args = dict(zip(sch.keys, values))
            d = dur[i]
            out.append(TraceEvent(
                ts[i], sch.cat, sch.name, node[i], tid[i],
                None if d != d else d, args, sch.ph,
            ))
        return out

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first (spans ordered by start)."""
        out = self._rows()
        out.sort(key=_BY_TS)
        return out

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
        cats = [sch.cat for sch in self._schema_list]
        for code in self._kind[head:] + self._kind[:head]:
            cat = cats[code]
            out[cat] = out.get(cat, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder {len(self._ts)}/{self.capacity} events, "
            f"{self.n_dropped} dropped, cats={sorted(self.categories)}>"
        )
