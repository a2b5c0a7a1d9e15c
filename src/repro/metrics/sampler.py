"""The live metrics object: registry + deterministic periodic sampler.

:class:`Metrics` is a subscriber of the simulation's probe bus
(:mod:`repro.sim.probe`): detached, a run pays the bus's own
``sim.probe is None`` guard per site and nothing else.

Sampling is **passive**: :meth:`Metrics.on_step` answers the event
loop's ``kernel/step`` with the next multiple of ``period`` as its due
virtual time, so the loop calls it only on the first event at or after
that grid point, where the sampler snapshots its sources.  No timeout
events are ever scheduled, no CPU is charged, no sequence numbers are
consumed — the event schedule of an observed run is
*bit-identical* to the unobserved run, which is what lets the goldens
pin virtual times with metrics on.  The cost of that passivity: samples
land on the first event *at or after* each grid point (exactly the grid
under any workload that processes events steadily), and a quiet tail
yields no samples until :meth:`finalize` takes the closing one.

Sources are ``(prefix, fn)`` pairs where ``fn() -> {name: number}``;
each key becomes the time-series ``prefix/name``.  The stock sources for
every layer live in :mod:`repro.metrics.sources`.  Every series of one
source is sampled at the same instants, so a source keeps one time
column and each of its series a value column plus the index on that
clock of its first sample (a link first carries a frame mid-run).  While
its keys repeat and every series is on its clock with room, a sample is
one ``array.extend`` into the source's pending block, which moves into
the series' columns when the keys change, before ``max_samples`` could
bind and before any read.

The registry's latency histograms (lock wait/hold, barrier epoch
latency, network delivery latency) and the in-flight per-link gauges are
fed by the probe kinds listed in ``Metrics._handlers`` — see the
``_on_*`` methods.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.metrics.registry import Histogram, MetricsRegistry
from repro.sim.probe import CAT_AUDIT, Subscriber

#: one sampled value stream: (times, values) as ``array('d')`` columns
Series = Tuple[array, array]
SourceFn = Callable[[], Dict[str, float]]

_INF = float("inf")

#: metric names the hooks maintain
NET_LATENCY = "net_latency_seconds"
LOCK_WAIT = "lock_wait_seconds"
LOCK_HOLD = "lock_hold_seconds"
BARRIER_EPOCH = "barrier_epoch_seconds"


class _Series:
    """One value stream: ``values`` sampled at ``clock[start:]``, the
    clock shared with the other series of its source.  A series that
    misses one of its source's samples gets a clock of its own (``own``)."""

    __slots__ = ("values", "clock", "start", "own")

    def __init__(self, clock: array, start: int):
        self.values = array("d")
        self.clock = clock
        self.start = start
        self.own = False

    def read(self) -> Series:
        start = self.start
        return self.clock[start:start + len(self.values)], self.values


class _Source:
    """One snapshot source: its ``prefix/name`` series and their clock."""

    __slots__ = ("prefix", "fn", "clock", "known", "keys", "series", "block", "room")

    def __init__(self, prefix: str, fn: Optional[SourceFn]):
        self.prefix = prefix
        self.fn = fn
        #: the virtual times this source's series were sampled at
        self.clock = array("d")
        #: name -> its series
        self.known: Dict[str, _Series] = {}
        #: while a sample's keys are ``keys`` (in order) and ``room``
        #: samples are left, its values go to ``block``, row-major over
        #: ``series`` (the series of ``keys``)
        self.keys: Optional[tuple] = None
        self.series: List[_Series] = []
        self.block = array("d")
        self.room = 0

    def flush(self) -> None:
        """Move the pending block into the series' value columns."""
        block = self.block
        if block:
            k = len(self.series)
            for i, s in enumerate(self.series):
                s.values.extend(block[i::k])
            del block[:]


class SeriesView(Mapping):
    """``series[name]`` -> ``(times, values)``, in creation order; *flush*
    runs before a read."""

    def __init__(self, series: Dict[str, _Series], flush: Callable[[], None]):
        self._series = series
        self._flush = flush

    def __getitem__(self, name: str) -> Series:
        self._flush()
        return self._series[name].read()

    def __iter__(self) -> Iterator[str]:
        return iter(self._series)

    def __len__(self) -> int:
        return len(self._series)


class _Link:
    """One ``(src, dst)`` pair: its in-flight level, and its two
    cumulative counters and two series names resolved once, when the link
    carries its first frame — not per frame and per sample."""

    __slots__ = ("msgs", "nbytes", "frames_total", "bytes_total",
                 "msgs_series", "bytes_series")

    def __init__(self, registry: MetricsRegistry, src: int, dst: int):
        self.msgs = 0
        self.nbytes = 0
        self.frames_total = registry.counter("net_frames_total", src=src, dst=dst)
        self.bytes_total = registry.counter("net_bytes_total", src=src, dst=dst)
        self.msgs_series = f"link/{src}->{dst}/msgs_inflight"
        self.bytes_series = f"link/{src}->{dst}/bytes_inflight"


class Metrics(Subscriber):
    """Live metrics for one simulator; subscribes to ``sim.probe``.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose virtual clock drives
        the sampling grid; subscribed unless ``attach=False``.
    period : virtual seconds between samples (the grid spacing).
    max_samples : per-series bound; once reached, further samples of that
        series are dropped (``n_dropped`` counts them) so memory stays
        bounded on arbitrarily long runs.
    """

    def __init__(
        self,
        sim,
        period: float = 1e-4,
        attach: bool = True,
        max_samples: int = 1 << 16,
    ):
        if period <= 0.0:
            raise ValueError(f"sampling period must be positive, got {period}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.sim = sim
        self.period = period
        self.max_samples = max_samples
        self.registry = MetricsRegistry()
        #: series name -> its stream; insertion-ordered
        self._series: Dict[str, _Series] = {}
        #: series name -> (times, values)
        self.series = SeriesView(self._series, self._flush)
        self.sources: List[_Source] = []
        #: the event-loop queue depth, sampled by :meth:`on_step`
        self._queue = _Source("sim", None)
        self.n_samples = 0
        self.n_dropped = 0
        self.finalized_at: Optional[float] = None
        self._next_due = period
        #: (src, dst) -> the link's frames in flight (sent, not yet
        #: delivered into the destination inbox)
        self.inflight: Dict[Tuple[int, int], _Link] = {}
        #: ``inflight``'s links in ``(src, dst)`` order, re-sorted only
        #: when a link is added
        self._links: List[_Link] = []
        self._inflight_msgs = 0
        self._inflight_bytes = 0
        #: the delivery-latency histogram, resolved at the first delivery
        self._net_latency: Optional[Histogram] = None
        #: message seq -> virtual time its send call started
        self._sent_at: Dict[int, float] = {}
        #: (node, lock) -> grant time of a distributed lock currently held
        self._granted_at: Dict[Tuple[int, int], float] = {}
        #: probe kind -> handler (see repro.sim.probe for the signatures)
        self._handlers = {
            ("kernel", "step"): self.on_step,
            ("net", "msg-send"): self._on_msg_send,
            ("net", "msg-deliver"): self._on_msg_deliver,
            (CAT_AUDIT, "lock-acquire"): self._on_lock_acquire,
            (CAT_AUDIT, "lock-release"): self._on_lock_release,
            (CAT_AUDIT, "barrier-epoch"): self._on_barrier_epoch,
        }
        self.add_source("net", self._net_source)
        if attach:
            self.attach()

    def add_source(self, prefix: str, fn: SourceFn) -> None:
        """Register a snapshot source; its keys become ``prefix/name``
        series.  Sources must only *read* state — they run inside the
        event loop and anything else would perturb the schedule."""
        self.sources.append(_Source(prefix, fn))

    # -- sampling -------------------------------------------------------
    def on_step(self, now: float, queue_depth: int):
        """``kernel/step``: samples when *now* has crossed the next grid
        point; returns the next due ``(events_processed, virtual time)``."""
        if now >= self._next_due:
            self.sample(now, queue_depth)
            self._next_due = self.period * (math.floor(now / self.period) + 1.0)
        return _INF, self._next_due

    def sample(self, now: float, queue_depth: Optional[int] = None) -> None:
        """Snapshot every source at virtual time *now*."""
        self.n_samples += 1
        if queue_depth is not None:
            self._take(self._queue, now, {"queue_depth": queue_depth})
        for src in self.sources:
            self._take(src, now, src.fn())

    def _take(self, src: _Source, now: float, values: Dict[str, float]) -> None:
        """Record one snapshot of *src*: *now* goes on its clock once,
        if any of its series still has room."""
        keys = tuple(values)
        if src.room and keys == src.keys:  # module docstring
            src.block.extend(values.values())
            src.clock.append(now)
            src.room -= 1
            return
        self._flush()
        clock, known, cap = src.clock, src.known, self.max_samples
        at = len(clock)  # where *now* goes on the clock
        ticked = False
        for name, value in values.items():
            s = known.get(name)
            if s is None:
                full = f"{src.prefix}/{name}"
                s = self._series.get(full) or _Series(clock, at)
                known[name] = self._series[full] = s
            vals = s.values
            if len(vals) >= cap:
                self.n_dropped += 1
                continue
            if s.clock is clock and s.start + len(vals) == at:
                if not ticked:
                    clock.append(now)
                    ticked = True
            else:  # off its source's clock: it keeps a clock of its own
                if not s.own:
                    s.clock, s.start, s.own = s.read()[0], 0, True
                s.clock.append(now)
            vals.append(float(value))
        # the next samples of these keys go to the block while every
        # series is on the clock with room
        series = [known[name] for name in keys]
        at = len(clock)
        src.keys, src.series = keys, series
        src.room = 0
        if series and all(s.clock is clock and s.start + len(s.values) == at
                          for s in series):
            src.room = cap - max(len(s.values) for s in series)

    def _flush(self) -> None:
        """Every source's pending block into its series' columns."""
        self._queue.flush()
        for src in self.sources:
            src.flush()

    def finalize(self) -> "Metrics":
        """Take the closing sample at the current virtual time (idempotent
        at a given time) and stamp ``finalized_at``."""
        now = self.sim.now
        if self.finalized_at != now:
            self.sample(now)
            self.finalized_at = now
        return self

    def _net_source(self) -> Dict[str, float]:
        out = {
            "inflight_msgs": self._inflight_msgs,
            "inflight_bytes": self._inflight_bytes,
        }
        for link in self._links:
            out[link.msgs_series] = link.msgs
            out[link.bytes_series] = link.nbytes
        return out

    # -- network facts ---------------------------------------------------
    def _on_msg_send(self, a, src, *_) -> None:
        """``net/msg-send``: a frame entered the network (also loopback)."""
        dst, nbytes = a["dst"], a["nbytes"]
        self._sent_at[a["seq"]] = self.sim.now
        link = self.inflight.get((src, dst))
        if link is None:
            link = self.inflight[src, dst] = _Link(self.registry, src, dst)
            self._links = [lk for _, lk in sorted(self.inflight.items())]
        link.msgs += 1
        link.nbytes += nbytes
        self._inflight_msgs += 1
        self._inflight_bytes += nbytes
        # Counter.inc inlined: a frame's size is never negative
        link.frames_total.value += 1
        link.bytes_total.value += nbytes

    def _on_msg_deliver(self, a, dst, *_) -> None:
        """``net/msg-deliver``: the frame reached the destination inbox;
        its latency runs from the start of the send call (queueing + wire
        + recovery)."""
        sent = self._sent_at.pop(a["seq"], None)
        if sent is None:  # sent before this sampler subscribed
            return
        nbytes = a["nbytes"]
        link = self.inflight.get((a["src"], dst))
        if link is not None:
            link.msgs -= 1
            link.nbytes -= nbytes
        self._inflight_msgs -= 1
        self._inflight_bytes -= nbytes
        hist = self._net_latency
        if hist is None:
            hist = self._net_latency = self.registry.histogram(NET_LATENCY)
        hist.observe(self.sim.now - sent)

    # -- DSM facts -------------------------------------------------------
    def _on_lock_acquire(self, a, node, tid, t0, ph) -> None:
        """``audit/lock-acquire``: request-to-grant latency of one acquire."""
        now = self.sim.now
        self.registry.histogram(LOCK_WAIT, lock=a["lock"]).observe(now - t0)
        self._granted_at[node, a["lock"]] = now

    def _on_lock_release(self, a, node, *_) -> None:
        """``audit/lock-release``: grant-to-release time of one section."""
        grant_t = self._granted_at.pop((node, a["lock"]), None)
        if grant_t is not None:
            self.registry.histogram(LOCK_HOLD, lock=a["lock"]).observe(
                self.sim.now - grant_t
            )

    def _on_barrier_epoch(self, a, node, tid, t0, ph) -> None:
        """``audit/barrier-epoch``: latency of one barrier call on *node*."""
        self.registry.histogram(BARRIER_EPOCH, node=node).observe(self.sim.now - t0)

    # -- serialisation ---------------------------------------------------
    def dump(self, meta: Optional[Dict] = None) -> Dict:
        """Plain-dict snapshot: what ``metrics --json`` writes and the
        scorecard reads (:mod:`repro.metrics.scorecard`)."""
        instruments = []
        for inst in self.registry:
            ent = {
                "kind": inst.kind,
                "name": inst.name,
                "labels": {k: v for k, v in inst.labels},
            }
            if inst.kind == "histogram":
                ent.update(inst.as_dict())
            else:
                ent["value"] = inst.value
            instruments.append(ent)
        return {
            "schema": 1,
            "meta": dict(meta or {}),
            "period": self.period,
            "finalized_at": self.finalized_at,
            "n_samples": self.n_samples,
            "n_dropped": self.n_dropped,
            "series": {
                name: {"t": list(t), "v": list(v)}
                for name, (t, v) in self.series.items()
            },
            "instruments": instruments,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Metrics {len(self.series)} series, {self.n_samples} samples, "
            f"{len(self.registry)} instruments, period={self.period}>"
        )
