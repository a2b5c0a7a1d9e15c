"""Observer state in flat columns, and ``kernel/step`` offered only when due.

The recorder ring, the profiler interval stream and the metrics series
keep bytes per recorded fact (``array`` columns, shared references), not
a Python object per fact: the tracemalloc ceilings below keep a per-fact
object from coming back unnoticed.  The event loop calls a step consumer
only on the event it said it is due at; :class:`conftest.PerEventSteps`
offers every event, the way the loop used to, and must see the same
samples.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.metrics import Metrics, install_default_sources
from repro.profile import Profiler
from repro.sim.probe import subscribe
from repro.trace import TraceRecorder

from conftest import PerEventSteps, reference_grid, reference_queue_stride
from test_determinism_golden import _OBSERVED_WORKLOADS, _cg_workload, _trace_digest

#: retained bytes per fact on the class-T CG observer golden, ~1.5x of
#: what the column stores measure there (CPython 3.11: 65 per trace row,
#: 22 per profiler interval, 9.6 per metrics sample).  A TraceEvent and a
#: kwargs dict per row, a 5-tuple per interval and two boxed floats per
#: sample measured 324 / 110 / 41; an argument tuple per row, tid and
#: phase references per interval and a time column per series 139 / 34 / 17.
CEILINGS = {"trace row": 98, "profiler interval": 33, "metrics sample": 14}


def _freed(release) -> int:
    """Traced bytes *release()* gives back."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    release()
    gc.collect()
    return before - tracemalloc.get_traced_memory()[0]


def test_observer_state_costs_bytes_per_fact():
    tracemalloc.start()
    try:
        rt, program = _cg_workload()
        rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
        prof = Profiler(rt.sim)
        mx = Metrics(rt.sim, period=1e-4)
        install_default_sources(mx, rt)
        rt.run(program)
        facts = {
            "trace row": len(rec),
            "profiler interval": len(prof.intervals) + len(prof.net_intervals),
            "metrics sample": sum(len(t) for t, _ in mx.series.values()),
        }

        def release_intervals():
            prof.intervals = prof.net_intervals = None

        def release_series():
            mx.sources.clear()
            mx._series.clear()
            mx._queue = None

        freed = {
            "trace row": _freed(rec.drain),
            "profiler interval": _freed(release_intervals),
            "metrics sample": _freed(release_series),
        }
    finally:
        tracemalloc.stop()
    for kind, ceiling in CEILINGS.items():
        assert facts[kind] > 10_000, kind
        assert freed[kind] / facts[kind] <= ceiling, (kind, freed[kind] / facts[kind])


#: virtual time at which the second recorder and the sampler join,
#: about a third into each workload
ATTACH_AT = {"cg": 0.025, "sync": 0.003}


def _mid_run(workload: str, per_event: bool):
    """One recorder from the start, a second recorder and a metrics
    sampler attached mid-run; with *per_event* each takes its steps from
    the per-event reference instead of from the loop's due schedule."""
    rt, program = _OBSERVED_WORKLOADS[workload]()
    sim = rt.sim

    def recorder(stride):
        rec = TraceRecorder(sim, capacity=1 << 18, queue_stride=stride,
                            attach=not per_event)
        if per_event:
            subscribe(sim, PerEventSteps(rec, reference_queue_stride(rec)))
        return rec

    first = recorder(64)
    late = {}

    def attach_later():
        yield sim.timeout(ATTACH_AT[workload])
        late["rec"] = recorder(16)
        mx = late["mx"] = Metrics(sim, period=1e-4, attach=not per_event)
        if per_event:
            subscribe(sim, PerEventSteps(mx, reference_grid(mx)))

    sim.process(attach_later(), label="attach")
    res = rt.run(program)
    late["mx"].finalize()
    return res, first, late["rec"], late["mx"]


@pytest.mark.parametrize("workload", ["cg", "sync"])
def test_due_driven_steps_match_the_per_event_offering(workload):
    res, first, rec, mx = _mid_run(workload, per_event=False)
    ref_res, ref_first, ref_rec, ref_mx = _mid_run(workload, per_event=True)
    assert res.elapsed == ref_res.elapsed
    for got, want in ((first, ref_first), (rec, ref_rec)):
        depth = [(e.ts, e.args) for e in got.events if e.name == "queue-depth"]
        assert depth == [(e.ts, e.args) for e in want.events if e.name == "queue-depth"]
        assert depth
        assert _trace_digest(got.events) == _trace_digest(want.events)
    assert mx.n_samples == ref_mx.n_samples > 1
    assert mx.dump() == ref_mx.dump()
