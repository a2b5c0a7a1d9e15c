"""Critical-path analysis over recorded profiler intervals.

The simulator advances virtual time only while *something* is active: a
CPU burst (compute, twin/diff work, comm-thread service, spin slice), a
NIC transmission, or a message in flight on the switch.  End-to-end
virtual time is therefore bounded by a chain of **active** intervals, and
the profiler records every one of them with its phase label.

Rather than materialising the full event dependency graph, we use the
coverage property: at any instant on the critical path some active
interval covers that instant (otherwise virtual time could not have
advanced past it — the event queue would have been empty).  A backward
sweep from the end of the run therefore reconstructs *a* critical path:

1. walk backwards from ``t_end``;
2. at each position, among the active intervals covering it, charge the
   segment to the covering interval chosen by a deterministic rule
   (latest start, then tid/phase lexicographic — so repeated runs agree);
3. jump to that interval's start and repeat until ``t=0``.

Gaps with no active interval (the run's ramp-up, pure timeouts) are
charged to ``unattributed``.  The result is a per-phase decomposition of
the *elapsed* time — a lower-bound certificate for what-if questions:

* zero network latency → elapsed could shrink by at most the on-path
  ``net-flight`` time;
* free twin/diff work → at most the on-path ``fault-work`` + ``flush``;
* free comm-thread service → at most the on-path ``comm-service``.

These bounds are exactly the quantities the paper's Figures 6–10 argue
about (interconnect sensitivity, consistency overhead, comm-thread CPU
contention).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.profile.phases import (
    PH_COMM_SERVICE,
    PH_FAULT_WORK,
    PH_FLUSH,
    PH_NET_FLIGHT,
    PH_NET_TX,
)

if TYPE_CHECKING:
    from repro.profile.profiler import Intervals

UNATTRIBUTED = "unattributed"


class CriticalPath:
    """Result of the backward sweep.

    Attributes
    ----------
    elapsed : the analysed span (0 .. t_end)
    phase_time : on-path seconds per phase (+ ``unattributed`` gaps)
    segments : the reconstructed chain, earliest first, as
        ``(t0, t1, tid, phase)``
    what_if : name -> lower-bound elapsed if that cost class were free
    """

    def __init__(self, elapsed: float):
        self.elapsed = elapsed
        self.phase_time: Dict[str, float] = {}
        self.segments: List[Tuple[float, float, str, str]] = []
        self.what_if: Dict[str, float] = {}

    def _charge(self, t0: float, t1: float, tid: str, phase: str) -> None:
        if t1 <= t0:
            return
        self.phase_time[phase] = self.phase_time.get(phase, 0.0) + (t1 - t0)
        # coalesce with the adjacent segment when it is the same work
        if self.segments and self.segments[-1][0] == t1 and \
                self.segments[-1][2] == tid and self.segments[-1][3] == phase:
            old = self.segments[-1]
            self.segments[-1] = (t0, old[1], tid, phase)
        else:
            self.segments.append((t0, t1, tid, phase))

    def on_path(self, *phases: str) -> float:
        return sum(self.phase_time.get(p, 0.0) for p in phases)

    def as_dict(self) -> Dict:
        return {
            "elapsed": self.elapsed,
            "phase_time": dict(sorted(self.phase_time.items())),
            "what_if": dict(sorted(self.what_if.items())),
            "n_segments": len(self.segments),
            "segments": [list(s) for s in self.segments[:200]],
        }


def compute_critical_path(
    intervals: Intervals,
    t_end: Optional[float] = None,
) -> CriticalPath:
    """Backward-sweep critical path over *intervals* (profiler's
    ``intervals + net_intervals``); only ``active`` entries participate.
    Reads the columns directly: no tuple is built per interval."""
    t0s, t1s, tids, phases = intervals.t0, intervals.t1, intervals.tid, intervals.phase
    b0 = np.frombuffer(t0s, dtype=np.float64)
    b1 = np.frombuffer(t1s, dtype=np.float64)
    keep = np.flatnonzero(np.frombuffer(intervals.active, dtype=np.uint8) & (b1 > b0))
    if t_end is None:
        t_end = t1s[int(keep[b1[keep].argmax()])] if len(keep) else 0.0
    cp = CriticalPath(t_end)
    if t_end <= 0.0:
        return cp

    # deterministic processing order: by end time, then start, tid, phase
    # (lexsort is stable, and strings sort by their rank among the distinct)
    def ranks(col):
        rank = {v: r for r, v in enumerate(sorted(set(col)))}
        return np.fromiter(map(rank.__getitem__, col), dtype=np.int64, count=len(col))

    order = keep[
        np.lexsort((ranks(phases)[keep], ranks(tids)[keep], b0[keep], b1[keep]))
    ].tolist()

    t = t_end
    i = len(order) - 1
    # max-heap on start time of the intervals covering / abutting `t`
    heap: List[Tuple[float, str, str, float]] = []  # (-t0, tid, phase, t1)
    while t > 0.0:
        while i >= 0 and t1s[order[i]] >= t:
            j = order[i]
            heapq.heappush(heap, (-t0s[j], tids[j], phases[j], t1s[j]))
            i -= 1
        # drop intervals ending at/after t but starting at/after t: they
        # cannot cover any span strictly before t
        while heap and -heap[0][0] >= t:
            heapq.heappop(heap)
        if not heap:
            # nothing active covers (…, t): gap back to the latest end
            prev_end = t1s[order[i]] if i >= 0 else 0.0
            cp._charge(prev_end, t, "-", UNATTRIBUTED)
            t = prev_end
            continue
        neg_t0, tid, phase, _t1 = heap[0]
        t0 = -neg_t0
        cp._charge(t0, t, tid, phase)
        t = t0

    cp.segments.reverse()
    cp.what_if = {
        "zero-network-latency": t_end - cp.on_path(PH_NET_FLIGHT),
        "free-twin-diff-work": t_end - cp.on_path(PH_FAULT_WORK, PH_FLUSH),
        "free-comm-service": t_end - cp.on_path(PH_COMM_SERVICE),
        "zero-net-transmit": t_end - cp.on_path(PH_NET_TX),
    }
    return cp
