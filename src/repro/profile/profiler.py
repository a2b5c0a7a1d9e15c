"""The virtual-time profiler.

A subscriber of the simulation's probe bus (:mod:`repro.sim.probe`)::

    prof = Profiler(sim)          # subscribes to sim.probe
    ... run the program ...
    prof.finalize()               # close open phases at final virtual time
    report = ProfileReport.from_profiler(prof)   # ledgers, path, hot tables

It consumes the phase brackets the stack states (``phase/push``,
``phase/replace``, ``phase/pop``), which drive a per-thread **phase
stack**:

* ``push(phase)`` starts a nested phase on the calling simulation thread;
  ``push(phase, True)`` marks it active (a hold granted at once states
  its busy phase so), and ``push(None, True)`` pushes an *active* copy
  of the current top;
* ``pop()`` returns to the enclosing phase;
* ``replace(phase)`` swaps the top for an active *phase* (CPU grant:
  cpu-wait → busy); ``replace(None)`` swaps in an *active* copy of the
  enclosing phase — how raw protocol CPU bursts inherit their context (a
  diff computed during a flush is *flush* time, a spin slice during a
  lock acquire is *lock-wait* time).

Time is attributed to the innermost (top) phase; every transition closes
the current slice into the thread's ledger, so per-thread phase times sum
exactly to the thread's virtual lifetime.  With ``record_intervals`` the
closed slices are also kept as an :class:`Intervals` column store — the
input of the critical-path sweep (:mod:`repro.profile.critical_path`) and
the Chrome-counter export (:mod:`repro.profile.export`).

The hot-page and hot-lock tables and the network pseudo-thread are fed by
the kinds in ``Profiler._handlers``: page fetches and lock grants off
their trace kinds, and the ``audit`` kinds for thread start/end, faults,
diffs, lock waits, message flights and retransmit dead time.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from repro.profile.phases import (
    ALL_GROUPS,
    PH_IDLE,
    PH_NET_FLIGHT,
    PH_OVERHEAD,
    PH_RETRANSMIT,
    NET_TID,
    group_of,
    node_of_tid,
)
from repro.sim.probe import CAT_AUDIT, Subscriber
from repro.util.codes import CodedColumn
from repro.util.tables import percentile

#: an emitted interval: (t0, t1, tid, phase, active)
Interval = Tuple[float, float, str, str, bool]


class Intervals:
    """The closed phase slices as parallel columns: ``t0`` / ``t1`` in
    ``array('d')``, ``tid`` and ``phase`` as :class:`CodedColumn` s
    (a two-byte code per slice, one code table per stream), and the
    ``active`` flags in a ``bytearray`` — a slice holds numbers only.
    Iterating yields :data:`Interval` tuples, decoded on read; ``+``
    concatenates two streams."""

    __slots__ = ("t0", "t1", "tid", "phase", "active")

    def __init__(self):
        self.t0 = array("d")
        self.t1 = array("d")
        self.tid = CodedColumn()
        self.phase = CodedColumn()
        self.active = bytearray()

    def append(self, t0: float, t1: float, tid: str, phase: str, active: bool) -> None:
        self.t0.append(t0)
        self.t1.append(t1)
        self.tid.append(tid)
        self.phase.append(phase)
        self.active.append(active)

    def __len__(self) -> int:
        return len(self.t0)

    def __iter__(self) -> Iterator[Interval]:
        return zip(self.t0, self.t1, self.tid, self.phase, map(bool, self.active))

    def __add__(self, other: "Intervals") -> "Intervals":
        out = Intervals()
        for col in self.__slots__:
            setattr(out, col, getattr(self, col) + getattr(other, col))
        return out


class _ThreadState:
    """Phase stack + ledger of one simulation thread; ``code`` is its tid
    code in the profiler's interval stream."""

    __slots__ = ("tid", "code", "node", "start", "last", "end", "stack", "ledger")

    def __init__(self, tid: str, now: float, code: int):
        self.tid = tid
        self.code = code
        self.node = node_of_tid(tid)
        self.start = now
        self.last = now
        self.end: Optional[float] = None
        #: innermost last; entries are (phase, active)
        self.stack: List[Tuple[str, bool]] = []
        self.ledger: Dict[str, float] = {}


#: the three phase facts, as :meth:`Profiler._phase` tells them apart
_PUSH, _REPLACE, _POP = range(3)
#: no running process: the thread ``main``
_NOBODY = object()
#: the bottom of every stack
_IDLE = (PH_IDLE, False)


class LockStats:
    """Per-distributed-lock accumulator (hot-lock table row)."""

    __slots__ = ("acquires", "remote_acquires", "hops", "waits", "last_holder")

    def __init__(self):
        self.acquires = 0
        self.remote_acquires = 0
        #: grants whose requester differs from the previous holder — the
        #: token actually moved between nodes
        self.hops = 0
        self.waits: List[float] = []
        self.last_holder: Optional[int] = None


class PageStats:
    """Per-page accumulator (hot-page table row)."""

    __slots__ = ("read_faults", "write_faults", "fetches", "fetch_bytes",
                 "diffs", "diff_bytes")

    def __init__(self):
        self.read_faults = 0
        self.write_faults = 0
        self.fetches = 0
        self.fetch_bytes = 0
        self.diffs = 0
        self.diff_bytes = 0


class Profiler(Subscriber):
    """Bounded-state virtual-time profiler, bound to one simulator.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose clock stamps phases; the
        profiler subscribes to ``sim.probe`` unless ``attach=False``.
    record_intervals : keep the flat interval stream (needed for the
        critical path and the Chrome-counter export; ledgers and hot
        tables work without it).
    """

    def __init__(self, sim, attach: bool = True, record_intervals: bool = True):
        self.sim = sim
        self.record_intervals = record_intervals
        self.threads: Dict[str, _ThreadState] = {}
        self.intervals = Intervals()
        #: switch-propagation intervals of the pseudo-thread ``net``
        self.net_intervals = Intervals()
        self.net_flight_s = 0.0
        self.net_flights = 0
        #: reliability-layer retransmit-timer dead time (chaos runs only)
        self.retransmit_waits = 0
        self.retransmit_wait_s = 0.0
        self.pages: Dict[int, PageStats] = {}
        self.locks: Dict[int, LockStats] = {}
        self.finalized_at: Optional[float] = None
        #: the process that stated the last phase fact, and its thread
        self._proc, self._st = _NOBODY, None
        #: a flight's tid and phase codes in ``net_intervals``
        self._net_codes = (self.net_intervals.tid.code(NET_TID),
                           self.net_intervals.phase.code(PH_NET_FLIGHT))
        #: probe kind -> handler(args, node, tid, t0, ph); the phase kinds
        #: take the phase label instead (see repro.sim.probe)
        self._handlers = {
            ("phase", "push"): partial(self._phase, _PUSH),
            ("phase", "replace"): partial(self._phase, _REPLACE),
            ("phase", "pop"): partial(self._phase, _POP),
            (CAT_AUDIT, "thread-start"): self._on_thread_start,
            (CAT_AUDIT, "thread-end"): self._on_thread_end,
            (CAT_AUDIT, "flight"): self._on_net_flight,
            (CAT_AUDIT, "retransmit-wait"): self._on_retransmit_wait,
            (CAT_AUDIT, "fault"): self._on_fault,
            ("dsm.page", "fetch"): self._on_fetch,
            (CAT_AUDIT, "diff"): self._on_diff,
            (CAT_AUDIT, "lock-acquire"): self._on_lock_acquired,
            ("dsm.lock", "grant"): self._on_lock_grant,
        }
        if attach:
            self.attach()

    # -- thread state ---------------------------------------------------
    def _thread(self, tid: str) -> _ThreadState:
        st = self.threads.get(tid)
        if st is None:
            st = self.threads[tid] = _ThreadState(
                tid, self.sim.now, self.intervals.tid.code(tid))
        return st

    # -- phase stack hooks ----------------------------------------------
    def _phase(self, op: int, phase: Optional[str] = None, active: bool = False,
               st: Optional[_ThreadState] = None) -> None:
        """``phase/push|replace|pop`` (*op*) on the running thread, or on
        *st*: attribute [``st.last``, now) to its top phase, then move its
        stack (module docstring).  One body, so a transition is one call."""
        sim = self.sim
        if st is None:
            proc = sim.active_process
            if proc is self._proc:
                st = self._st
            else:
                tid = proc.label if proc is not None else "main"
                st = self.threads.get(tid) or self._thread(tid)
                self._proc, self._st = proc, st
        now = sim.now
        stack = st.stack
        dur = now - st.last
        if dur > 0.0:
            top, top_active = stack[-1] if stack else _IDLE
            ledger = st.ledger
            ledger[top] = ledger.get(top, 0.0) + dur
            if self.record_intervals:
                iv = self.intervals
                phases = iv.phase
                code = phases.index.get(top)
                if code is None:
                    code = phases.code(top)  # may widen ``codes``: append after
                iv.t0.append(st.last)
                iv.t1.append(now)
                iv.tid.codes.append(st.code)
                phases.codes.append(code)
                iv.active.append(top_active)
            st.last = now
        if op is _POP:
            if stack:
                stack.pop()
            return
        if phase is None:  # an active copy of the current top / enclosing phase
            depth = 1 if op is _PUSH else 2
            phase = stack[-depth][0] if len(stack) >= depth else PH_OVERHEAD
            active = True
        elif op is _REPLACE:
            active = True  # a replaced top is the busy phase
        if op is _PUSH or not stack:
            stack.append((phase, active))
        else:
            stack[-1] = (phase, active)

    # -- process lifecycle (audit/thread-start, audit/thread-end) ----------
    def _on_thread_start(self, a, node, label, *_) -> None:
        """Open the thread's ledger at its creation virtual time, so
        leading waits are not lost."""
        self._thread(label)

    def _end(self, st: _ThreadState) -> None:
        """Close *st*'s last slice at the current virtual time."""
        self._phase(_POP, st=st)
        st.end = self.sim.now
        st.stack.clear()

    def _on_thread_end(self, a, node, label, *_) -> None:
        st = self.threads.get(label)
        if st is not None and st.end is None:
            self._end(st)

    def finalize(self) -> "Profiler":
        """Close every open phase at the current virtual time (idempotent:
        re-finalizing at the same time adds nothing)."""
        for st in self.threads.values():
            if st.end is None:
                self._end(st)
        self.finalized_at = self.sim.now
        return self

    # -- the pseudo-thread ``net`` (audit/flight, audit/retransmit-wait) ----
    def _on_net_flight(self, a, node, tid, t0, ph) -> None:
        """Record one message's switch-propagation interval."""
        t1 = self.sim.now
        self.net_flights += 1
        self.net_flight_s += t1 - t0
        if self.record_intervals and t1 > t0:
            iv = self.net_intervals  # Intervals.append inlined: one a message
            iv.t0.append(t0)
            iv.t1.append(t1)
            iv.tid.codes.append(self._net_codes[0])
            iv.phase.codes.append(self._net_codes[1])
            iv.active.append(True)

    def _on_retransmit_wait(self, a, node, tid, t0, ph) -> None:
        """Record the dead time preceding one reliability-layer retransmit:
        the frame (or its ack) was lost at *t0* and the retransmit timer
        fired now.  Attributed to the pseudo-thread ``net`` like
        switch propagation, so lossy-link stalls show up on the critical
        path as ``retransmit-wait`` rather than unattributed slack."""
        t1 = self.sim.now
        self.retransmit_waits += 1
        self.retransmit_wait_s += t1 - t0
        if self.record_intervals and t1 > t0:
            self.net_intervals.append(t0, t1, NET_TID, PH_RETRANSMIT, True)

    # -- hot pages (audit/fault, dsm.page/fetch, audit/diff) ----
    def _page(self, page: int) -> PageStats:
        ps = self.pages.get(page)
        if ps is None:
            ps = PageStats()
            self.pages[page] = ps
        return ps

    def _on_fault(self, a, *_) -> None:
        ps = self._page(a["page"])
        if a["write"]:
            ps.write_faults += 1
        else:
            ps.read_faults += 1

    def _on_fetch(self, a, *_) -> None:
        ps = self._page(a["page"])
        ps.fetches += 1
        ps.fetch_bytes += a["nbytes"]

    def _on_diff(self, a, *_) -> None:
        ps = self._page(a["page"])
        ps.diffs += 1
        ps.diff_bytes += a["nbytes"]

    # -- hot locks (audit/lock-acquire, dsm.lock/grant) ----------------------
    def _lock(self, lock_id: int) -> LockStats:
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = LockStats()
            self.locks[lock_id] = ls
        return ls

    def _on_lock_acquired(self, a, node, tid, t0, ph) -> None:
        """Client side: one acquire and its request-to-grant wait."""
        ls = self._lock(a["lock"])
        ls.acquires += 1
        if a["remote"]:
            ls.remote_acquires += 1
        ls.waits.append(self.sim.now - t0)

    def _on_lock_grant(self, a, *_) -> None:
        """Manager-side grant: counts holder-to-holder token hops."""
        ls = self._lock(a["lock"])
        requester = a["requester"]
        if ls.last_holder is not None and ls.last_holder != requester:
            ls.hops += 1
        ls.last_holder = requester

    # -- aggregation -------------------------------------------------------
    def ledgers(self) -> Dict[str, Dict[str, float]]:
        """``{tid: {phase: seconds}}`` snapshot (finalize first)."""
        return {tid: dict(st.ledger) for tid, st in sorted(self.threads.items())}

    def totals(self) -> Dict[str, float]:
        """Phase seconds summed over every thread, plus net flight."""
        out: Dict[str, float] = {}
        for st in self.threads.values():
            for phase, sec in st.ledger.items():
                out[phase] = out.get(phase, 0.0) + sec
        return out

    def group_totals(self) -> Dict[str, float]:
        out = {g: 0.0 for g in ALL_GROUPS}
        for phase, sec in self.totals().items():
            out[group_of(phase)] += sec
        return out

    def group_fractions(self, ndigits: int = 6) -> Dict[str, float]:
        """Group shares of total thread-time (what the bench records)."""
        gt = self.group_totals()
        total = sum(gt.values())
        if total <= 0.0:
            return {g: 0.0 for g in ALL_GROUPS}
        return {g: round(sec / total, ndigits) for g, sec in gt.items()}

    def thread_total(self, tid: str) -> float:
        st = self.threads[tid]
        end = st.end if st.end is not None else st.last
        return end - st.start

    def max_sum_error(self) -> float:
        """Largest |sum(phases) - lifetime| over all threads — the
        invariant ``--check`` asserts (should be ~float rounding)."""
        worst = 0.0
        for tid, st in self.threads.items():
            err = abs(sum(st.ledger.values()) - self.thread_total(tid))
            if err > worst:
                worst = err
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Profiler {len(self.threads)} threads, "
            f"{len(self.intervals)} intervals, {len(self.pages)} pages, "
            f"{len(self.locks)} locks>"
        )


#: nearest-rank percentile — re-exported from :mod:`repro.util.tables`,
#: shared with the metrics scorecard so the hot-lock table and the live
#: histograms agree on the definition
__all__ = ["Profiler", "LockStats", "PageStats", "percentile"]
