"""Structured event tracing for the simulated ParADE stack.

The paper's argument (§5–§7) is about *where time goes* — page faults,
twin/diff creation, write notices, barrier fan-in, lock hops, and the CPU
contention between compute threads and the communication thread.  The
end-of-run aggregates in :class:`repro.runtime.results.RunResult` say how
much; this package says *when* and *why*:

* :class:`TraceRecorder` — a bounded ring buffer of typed
  :class:`TraceEvent` records stamped with virtual time, node, and the
  simulation process (thread) that emitted them.  Opt-in: a recorder
  subscribes to one :class:`~repro.sim.Simulator`'s probe bus
  (:mod:`repro.sim.probe`); every instrumentation site in
  ``sim``/``cluster``/``dsm``/``mpi``/``runtime`` guards on
  ``sim.probe is None``, so an unobserved run costs one attribute load
  per site and allocates nothing.
* :mod:`repro.trace.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``; nodes become processes, simulation
  threads become tracks) and JSON lines (the input of ``trace-diff``).
* ``python -m repro trace`` — run any registered app with tracing on and
  write the exports (:func:`repro.trace.export.trace_cli`).

Recording never yields to the simulator and never reads anything but
``sim.now``, so enabling tracing cannot perturb virtual time: a traced
run and an untraced run of the same program are event-for-event
identical.  See ``docs/TRACING.md`` for the schema and a worked example.
"""

import importlib

from repro.trace.events import (
    TraceEvent,
    CAT_SIM,
    CAT_NET,
    CAT_PAGE,
    CAT_LOCK,
    CAT_BARRIER,
    CAT_MPI,
    CAT_RUNTIME,
    CAT_COUNTER,
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
)
from repro.trace.recorder import TraceRecorder

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "CAT_SIM",
    "CAT_NET",
    "CAT_PAGE",
    "CAT_LOCK",
    "CAT_BARRIER",
    "CAT_MPI",
    "CAT_RUNTIME",
    "CAT_COUNTER",
    "ALL_CATEGORIES",
    "DEFAULT_CATEGORIES",
    "to_chrome",
    "write_chrome_json",
]

#: names loaded on first access (PEP 562): exporting a trace happens
#: after a run, so recording one does not import the exporter
_LAZY = {
    "to_chrome": "export",
    "write_chrome_json": "export",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
