"""Trace event type and category vocabulary.

One :class:`TraceEvent` is either an *instant* (``dur is None``) or a
*span* (``dur`` in virtual seconds).  Events carry:

``ts``
    virtual time of the event (span start), in seconds;
``cat``
    one of the category constants below — the unit of filtering;
``name``
    the event kind within its category (e.g. ``page-state``, ``fetch``);
``node``
    cluster node id, or ``-1`` for simulator-kernel events that have no
    node (they export under the pseudo-process :data:`SIM_PID`);
``tid``
    the emitting track — by default the label of the simulation process
    that was running (``omp[2.1]r3``, ``comm[0]``, ``master`` ...), which
    is exactly the paper's thread structure;
``args``
    flat dict of event-specific detail (page, epoch, bytes, reason ...).

Categories
----------

========================  ====================================================
:data:`CAT_SIM`           kernel scheduling: process resume/block/end
:data:`CAT_NET`           message send/deliver, NIC transmit occupancy
:data:`CAT_PAGE`          page-state transitions, faults, fetches, twins,
                          diffs, home migration
:data:`CAT_LOCK`          distributed lock acquire/release/grant
:data:`CAT_BARRIER`       barrier arrive/release spans, epoch bookkeeping
:data:`CAT_MPI`           comm-thread message service, receive matching,
                          collectives
:data:`CAT_RUNTIME`       parallel-region and OpenMP-barrier spans
:data:`CAT_COUNTER`       sampled counter series (``ph: "C"`` in the Chrome
                          export): event-queue depth, per-node page-state
                          census at barriers
:data:`CAT_CHAOS`         fault injection and recovery: injected
                          drops/dups/delays/corruptions, retransmissions,
                          duplicate suppression, plus the ``reliability``
                          counter series (retransmit/duplicate/drop depth)
========================  ====================================================

:data:`DEFAULT_CATEGORIES` is everything except :data:`CAT_SIM`: kernel
scheduling events fire on every process resume and would dominate the
ring, and the kernel assembles them only while a recorder that opted in
(``categories=ALL_CATEGORIES``) is attached.  A timed resource occupancy
is kernel-resident, so it shows as one block and one resume.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

CAT_SIM = "sim"
CAT_NET = "net"
CAT_PAGE = "dsm.page"
CAT_LOCK = "dsm.lock"
CAT_BARRIER = "dsm.barrier"
CAT_MPI = "mpi"
CAT_RUNTIME = "runtime"
CAT_COUNTER = "counter"
CAT_CHAOS = "chaos"

ALL_CATEGORIES = frozenset(
    {CAT_SIM, CAT_NET, CAT_PAGE, CAT_LOCK, CAT_BARRIER, CAT_MPI, CAT_RUNTIME,
     CAT_COUNTER, CAT_CHAOS}
)
DEFAULT_CATEGORIES = ALL_CATEGORIES - {CAT_SIM}

#: exported Chrome pid for node == -1 (simulator-kernel) events
SIM_PID = 999


class TraceEvent:
    """One recorded instant, span, or counter sample; see module docstring.

    ``ph`` is ``None`` for instants/spans (the exporter derives the Chrome
    phase from ``dur``) and ``"C"`` for counter samples, whose ``args`` are
    the numeric series values at ``ts``.
    """

    __slots__ = ("ts", "dur", "cat", "name", "node", "tid", "args", "ph")

    def __init__(
        self,
        ts: float,
        cat: str,
        name: str,
        node: int = -1,
        tid: str = "main",
        dur: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
        ph: Optional[str] = None,
    ):
        self.ts = ts
        self.dur = dur
        self.cat = cat
        self.name = name
        self.node = node
        self.tid = tid
        self.args = args
        self.ph = ph

    @property
    def is_span(self) -> bool:
        return self.dur is not None

    @property
    def is_counter(self) -> bool:
        return self.ph == "C"

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "ts": self.ts,
            "dur": self.dur,
            "cat": self.cat,
            "name": self.name,
            "node": self.node,
            "tid": self.tid,
            "args": dict(self.args) if self.args else {},
        }
        if self.ph is not None:
            out["ph"] = self.ph
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"span dur={self.dur:.3e}" if self.is_span else "instant"
        return (
            f"<TraceEvent {self.cat}/{self.name} t={self.ts:.6e} "
            f"node={self.node} tid={self.tid!r} {kind} {self.args or {}}>"
        )
