"""Live metrics for the ParADE reproduction: registry, sampler, exports.

The subsystem subscribes to a running simulation's probe bus
(:mod:`repro.sim.probe`, zero cost when detached like every other
observer), samples every layer on a deterministic
virtual-time grid, and exposes the result as Prometheus text, JSON
time-series, CSV, or Chrome counter tracks.  ``python -m repro.metrics``
adds per-workload scorecards; :mod:`repro.metrics.regress` is the one
comparator of virtual-time records (the bench gate's).
See ``docs/METRICS.md`` for the guide.
"""

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
from repro.metrics.scorecard import build_scorecard, meter_workload, render_scorecards
from repro.metrics.regress import compare_records

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
    "meter_workload",
    "render_scorecards",
    "compare_records",
]
