"""The bounded trace recorder.

Lifecycle::

    rec = TraceRecorder(sim, capacity=1 << 16)   # subscribes to sim.probe
    ... run the program ...
    events = rec.drain()                          # or iterate rec.events

The recorder is a subscriber of the simulation's probe bus
(:mod:`repro.sim.probe` documents the one instrumentation pattern): it
consumes every kind of its :attr:`~TraceRecorder.categories` (read when
the bus resolves a kind: set them before attaching) plus ``kernel/step`` for
queue-depth sampling.  It records only what the bus routes to it: a fact
stated with ``sim.probe.instant`` / ``span`` / ``counter`` once it has
subscribed.

The ring is one ``bytearray`` of packed records, one per row, oldest
first, plus one object column, so a recorded fact holds only numbers
and shared references, never a Python object of its own.  A row's
record is its *kind* code, ``ts`` and ``dur`` (``NaN`` = an instant),
``node``, its ``tid`` code, then its int, float and bool arguments (8
bytes an int or float, 1 a bool); its other arguments (strings, tuples,
``None`` ...) go by reference to the object column, in row order.  Kind
and tid codes take two bytes each until either table passes 65 536
entries, when every record is re-packed with four.

A kind code names one interned *schema* ``(cat, name, ph, argument
names, argument value types)``.  Its :class:`struct.Struct` packs and
unpacks the whole record in one call — its size is the row's stride —
so an int comes back an int and a bool a bool.  An argument the record
cannot hold exactly (an int outside int64, a NaN) or of any other type
goes to the object column.  :class:`TraceEvent` records are built only
on read (:attr:`~TraceRecorder.events`, :meth:`~TraceRecorder.drain`).
When full, the ring drops its *oldest* row, by that row's own stride,
read from its kind code (``n_dropped`` counts them), so memory is
bounded by the configured capacity regardless of run length (the object
column keeps evicted values until they are half dead), and the tail of
the run — usually what you are debugging — is what survives.
"""

from __future__ import annotations

from functools import partial
from math import isnan
from operator import attrgetter, itemgetter
from struct import Struct
from struct import error as StructError
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.sim.probe import Subscriber
from repro.trace.events import TraceEvent, DEFAULT_CATEGORIES, CAT_COUNTER

_INF = float("inf")
_NAN = float("nan")
_BY_TS = attrgetter("ts")
#: an argument value type -> its struct code in the record; any other
#: type goes to the object column
_PACKED = {int: "q", float: "d", bool: "?"}
#: a kind or tid code past this one needs four bytes
_WIDE = 0x10000


class _Schema:
    """One interned kind of row: ``(cat, name, ph, argument names)`` and
    where each argument's value is kept.  ``packer`` packs and unpacks
    the whole record — kind code, ``ts``, ``dur``, ``node``, tid code,
    then the numbers (its ``size`` is the row's stride) — ``nums`` /
    ``objs`` / ``floats`` read the numeric / object / float argument
    values out of the row's argument dict, and ``in_objs`` says per
    argument which column it is read back from."""

    __slots__ = ("code", "cat", "name", "ph", "keys", "in_objs", "fmt",
                 "packer", "pack", "nums", "n_nums", "objs", "n_objs", "floats")

    def __init__(self, code: int, cat, name, ph, keys, types, width: str):
        self.code = code
        self.cat, self.name, self.ph, self.keys = cat, name, ph, keys
        self.in_objs = tuple([t not in _PACKED for t in types])
        num_keys = [k for k, t in zip(keys, types) if t in _PACKED]
        obj_keys = [k for k, t in zip(keys, types) if t not in _PACKED]
        self.fmt = "".join([_PACKED[t] for t in types if t in _PACKED])
        # an itemgetter of one key returns the value, of more a tuple
        self.n_nums, self.n_objs = len(num_keys), len(obj_keys)
        self.nums = itemgetter(*num_keys) if num_keys else None
        self.objs = itemgetter(*obj_keys) if obj_keys else None
        #: the float arguments, to keep a NaN out of the record
        self.floats = [k for k, t in zip(keys, types) if t is float]
        self.set_width(width)

    def set_width(self, width: str) -> None:
        """Pack the kind and tid codes as struct code *width* (``H``/``I``)."""
        self.packer = Struct(f"={width}ddi{width}{self.fmt}")
        self.pack = self.packer.pack


def _storable_types(types: tuple, values) -> tuple:
    """*types* with ``object`` wherever the record cannot hold the value
    exactly — an int outside int64, a NaN — so it goes to the object
    column instead."""
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
        "sim", "capacity", "categories", "_gone",
        "queue_stride", "_next_sample",
        "_buf", "_n", "_objs", "_objs_start", "_width", "_code_at",
        "_schemas", "_schema_list", "_tid_codes", "_tids",
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
        #: rows recorded and since evicted or drained
        self._gone = 0
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
        #: the rows' packed records, oldest first, and their other
        #: argument values, the oldest row's first at ``_objs_start``
        #: (evicted rows' values precede them until the column is compacted)
        self._buf = bytearray()
        self._n = 0
        self._objs: List[Any] = []
        self._objs_start = 0
        #: the struct code of kind and tid codes, and the reader of a
        #: record's kind code
        self._width = "H"
        self._code_at = Struct("=H").unpack_from
        #: ``(cat, name, ph, argument names, argument value types)`` ->
        #: its schema; ``_schema_list[code]`` is the schema of that code
        self._schemas: Dict[tuple, _Schema] = {}
        self._schema_list: List[_Schema] = []
        #: tid -> its code; ``_tids[code]`` is the tid of that code
        self._tid_codes: Dict[str, int] = {}
        self._tids: List[str] = []

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
    def _record(self, cat, name, args, node, tid, t0, ph) -> None:
        """Record one row, untested: the bus routes here only the kinds
        :meth:`handler_for` resolved, and :meth:`_on_step` only while
        ``counter`` is one of the :attr:`categories`."""
        now = self.sim.now
        if tid is None:
            proc = self.sim.active_process
            tid = proc.label if proc is not None else "main"
        if t0 is None:
            ts, dur = now, _NAN
        else:
            ts, dur, ph = t0, now - t0 if now > t0 else 0.0, None
        tc = self._tid_codes.get(tid)
        if tc is None:
            tc = self._tid_code(tid)
        key = (cat, name, ph, tuple(args), tuple(map(type, args.values())))
        sch = self._schemas.get(key) or self._schema(key)
        if sch.floats and any([isnan(args[k]) for k in sch.floats]):
            sch = self._schema(key, args)
        while True:
            n = sch.n_nums
            if n == len(args):  # every argument a number: in dict order
                nums = args.values()
            elif n > 1:
                nums = sch.nums(args)
            else:
                nums = (sch.nums(args),) if n else ()
            try:
                self._buf += sch.pack(sch.code, ts, dur, node, tc, *nums)
                break
            except StructError:  # an int the record cannot hold
                sch = self._schema(key, args)
        if sch.n_objs == 1:
            self._objs.append(sch.objs(args))
        elif sch.n_objs:
            self._objs.extend(sch.objs(args))
        self._n += 1
        if self._n > self.capacity:
            self._evict()

    def _schema(self, key: tuple, args: Optional[dict] = None) -> _Schema:
        """The schema of *key* ``(cat, name, ph, names, types)``, interned
        on first use; with *args*, the schema that sends each of their
        values the record cannot hold to the object column."""
        if args is not None:
            key = key[:4] + (_storable_types(key[4], args.values()),)
            sch = self._schemas.get(key)
            if sch is not None:
                return sch
        sch = self._schemas[key] = _Schema(len(self._schema_list), *key, self._width)
        self._schema_list.append(sch)
        if sch.code == _WIDE:
            self._widen()
        return sch

    def _tid_code(self, tid: str) -> int:
        """The code of a tid not seen before."""
        code = self._tid_codes[tid] = len(self._tids)
        self._tids.append(tid)
        if code == _WIDE:
            self._widen()
        return code

    def _widen(self) -> None:
        """Re-pack every record with four-byte kind and tid codes (once)."""
        if self._width == "I":
            return
        old = [sch.packer for sch in self._schema_list]
        for sch in self._schema_list:
            sch.set_width("I")
        buf, out, at = self._buf, bytearray(), 0
        for _ in range(self._n):
            code = self._code_at(buf, at)[0]
            packer = old[code]
            out += self._schema_list[code].packer.pack(*packer.unpack_from(buf, at))
            at += packer.size
        self._buf = out
        self._width = "I"
        self._code_at = Struct("=I").unpack_from

    def _evict(self) -> None:
        """Drop the oldest row: its record, by its own stride, and its
        object values; the object column is compacted once its dead
        prefix outgrows its live part."""
        sch = self._schema_list[self._code_at(self._buf)[0]]
        del self._buf[:sch.packer.size]
        self._n -= 1
        self._gone += 1
        start = self._objs_start + sch.n_objs
        if start > len(self._objs) >> 1:
            del self._objs[:start]
            start = 0
        self._objs_start = start

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
            if CAT_COUNTER in self.categories:
                self._record(CAT_COUNTER, "queue-depth", {"depth": queue_depth},
                             -1, "counters", None, "C")
            self._next_sample = n + stride
        return self._next_sample, _INF

    # -- inspection -----------------------------------------------------
    def _schemas_in_order(self):
        """Each row's schema and record offset, oldest first."""
        buf, schemas, code_at = self._buf, self._schema_list, self._code_at
        at = 0
        for _ in range(self._n):
            sch = schemas[code_at(buf, at)[0]]
            yield sch, at
            at += sch.packer.size

    def _rows(self) -> List[TraceEvent]:
        """Every row as a :class:`TraceEvent`, oldest first."""
        buf, objs, tids = self._buf, self._objs, self._tids
        oi = self._objs_start
        out = []
        for sch, at in self._schemas_in_order():
            _, ts, dur, node, tc, *nums = sch.packer.unpack_from(buf, at)
            args = None
            if sch.keys:
                packed = iter(nums)
                values = []
                for in_objs in sch.in_objs:
                    if in_objs:
                        values.append(objs[oi])
                        oi += 1
                    else:
                        values.append(next(packed))
                args = dict(zip(sch.keys, values))
            out.append(TraceEvent(
                ts, sch.cat, sch.name, node, tids[tc],
                None if dur != dur else dur, args, sch.ph,
            ))
        return out

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first (spans ordered by start)."""
        out = self._rows()
        out.sort(key=_BY_TS)
        return out

    @property
    def n_emitted(self) -> int:
        """Events offered and accepted (before eviction)."""
        return self._n + self._gone

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring so far (and drained: the events
        emitted that the ring no longer holds)."""
        return self._gone

    def __len__(self) -> int:
        return self._n

    def drain(self) -> List[TraceEvent]:
        """Return all buffered events (oldest first) and clear the ring."""
        out = self.events
        self._gone += self._n
        self._clear()
        return out

    def counts_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for sch, _ in self._schemas_in_order():
            out[sch.cat] = out.get(sch.cat, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder {self._n}/{self.capacity} events, "
            f"{self.n_dropped} dropped, cats={sorted(self.categories)}>"
        )
