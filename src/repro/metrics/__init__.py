"""Live metrics for the ParADE reproduction: registry, sampler, scorecards.

The subsystem subscribes to a running simulation's probe bus
(:mod:`repro.sim.probe`, zero cost when detached like every other
observer) and samples every layer on a deterministic virtual-time grid
into a plain-dict dump (:meth:`Metrics.dump`).  ``python -m repro
metrics`` prints one scorecard per workload and writes the dump as JSON
(``--json``).  See ``docs/METRICS.md`` for the guide.
"""

import importlib

from repro.metrics.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper,
)
from repro.metrics.sampler import (
    BARRIER_EPOCH,
    LOCK_HOLD,
    LOCK_WAIT,
    NET_LATENCY,
    Metrics,
)
from repro.metrics.sources import install_default_sources

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Metrics",
    "bucket_index",
    "bucket_upper",
    "NET_LATENCY",
    "LOCK_WAIT",
    "LOCK_HOLD",
    "BARRIER_EPOCH",
    "install_default_sources",
    "build_scorecard",
    "render_scorecards",
]

#: names loaded on first access (PEP 562): scorecards read finished
#: runs, so metering does not import them
_LAZY = {
    "build_scorecard": "scorecard",
    "render_scorecards": "scorecard",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
