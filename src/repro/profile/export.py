"""Chrome-trace export of profiler data.

Two complementary views of the interval stream:

* **phase spans** — every recorded interval becomes a ``ph: "X"`` slice on
  its thread's track, so Perfetto shows the phase timeline per thread
  (the pseudo-thread ``net`` carries message flights);
* **group counters** — per-node ``ph: "C"`` counter series sampled at a
  fixed grid: how many threads of that node are in each coarse group at
  that instant.  Perfetto stacks these, giving the live compute / stall /
  sync / comm breakdown the bench harness summarises as fractions.

Both reuse the trace layer's :func:`repro.trace.export.to_chrome`
machinery by synthesising :class:`~repro.trace.events.TraceEvent`
records, so profile exports can be merged with protocol traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace.events import TraceEvent, CAT_COUNTER
from repro.trace.export import write_chrome_json
from repro.profile.phases import ALL_GROUPS, NET_TID, group_of, node_of_tid
from repro.profile.profiler import Intervals, Profiler

#: category of synthesized profile slices
CAT_PROFILE = "profile"


def intervals_to_events(intervals: Intervals) -> List[TraceEvent]:
    """Phase slices: one complete (``X``) event per recorded interval."""
    out = []
    for t0, t1, tid, phase, active in zip(
        intervals.t0, intervals.t1, intervals.tid, intervals.phase, intervals.active
    ):
        node = -1 if tid == NET_TID else node_of_tid(tid)
        out.append(
            TraceEvent(
                ts=t0,
                cat=CAT_PROFILE,
                name=phase,
                node=node,
                tid=tid,
                dur=t1 - t0,
                args={"active": int(active)},
            )
        )
    return out


def group_counter_events(
    prof: Profiler, n_samples: int = 400
) -> List[TraceEvent]:
    """Per-node stacked counter series of thread counts per coarse group.

    Samples the interval stream on a uniform grid (``n_samples`` points
    over the elapsed span) — deterministic and bounded regardless of how
    many intervals were recorded.
    """
    t_end = prof.finalized_at if prof.finalized_at else prof.sim.now
    if not prof.intervals or t_end <= 0.0 or n_samples < 2:
        return []
    dt = t_end / (n_samples - 1)
    # node -> sample index -> group -> count; built by rasterising each
    # interval onto the grid (half-open [t0, t1))
    counts: Dict[int, List[Dict[str, int]]] = {}
    iv = prof.intervals
    for t0, t1, tid, phase in zip(iv.t0, iv.t1, iv.tid, iv.phase):
        node = node_of_tid(tid)
        grid = counts.get(node)
        if grid is None:
            grid = [dict() for _ in range(n_samples)]
            counts[node] = grid
        g = group_of(phase)
        i0 = 0 if t0 <= 0.0 else min(n_samples - 1, -int(-t0 // dt))  # ceil
        i1 = min(n_samples - 1, int(t1 // dt))
        for i in range(i0, i1 + 1):
            ti = i * dt
            if t0 <= ti < t1 or (i == n_samples - 1 and t1 >= t_end):
                grid[i][g] = grid[i].get(g, 0) + 1
    events = []
    for node in sorted(counts):
        grid = counts[node]
        for i, sample in enumerate(grid):
            events.append(
                TraceEvent(
                    ts=i * dt,
                    cat=CAT_COUNTER,
                    name=f"phases/node{node}",
                    node=node,
                    tid="phases",
                    args={g: sample.get(g, 0) for g in ALL_GROUPS},
                    ph="C",
                )
            )
    return events


def write_profile_chrome(
    prof: Profiler,
    path: str,
    label: str = "repro.profile",
    n_samples: int = 400,
    extra_events: Optional[List[TraceEvent]] = None,
) -> int:
    """Write phase slices + group counters (+ merged *extra_events*) as a
    Chrome trace; returns the record count."""
    events = intervals_to_events(prof.intervals + prof.net_intervals)
    events.extend(group_counter_events(prof, n_samples=n_samples))
    if extra_events:
        events.extend(extra_events)
    events.sort(key=lambda ev: (ev.ts, ev.node, ev.tid, ev.name))
    return write_chrome_json(events, path, label=label)
