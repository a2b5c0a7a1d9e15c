"""Live metrics for the ParADE reproduction: registry, sampler, exports.

The subsystem subscribes to a running simulation's probe bus
(:mod:`repro.sim.probe`, zero cost when detached like every other
observer), samples every layer on a deterministic
virtual-time grid, and exposes the result as Prometheus text, JSON
time-series, CSV, or Chrome counter tracks.  ``python -m repro metrics``
adds per-workload scorecards; :mod:`repro.metrics.regress` is the one
comparator of virtual-time records (the bench gate's).
See ``docs/METRICS.md`` for the guide.
"""

import importlib

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_lower,
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
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Metrics",
    "bucket_index",
    "bucket_lower",
    "bucket_upper",
    "NET_LATENCY",
    "LOCK_WAIT",
    "LOCK_HOLD",
    "BARRIER_EPOCH",
    "install_default_sources",
    "build_scorecard",
    "render_scorecards",
    "compare_records",
]

#: names loaded on first access (PEP 562): scorecards and record
#: comparison read finished runs, so metering imports neither
_LAZY = {
    "build_scorecard": "scorecard",
    "render_scorecards": "scorecard",
    "compare_records": "regress",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
