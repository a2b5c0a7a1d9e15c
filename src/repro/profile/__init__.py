"""Virtual-time profiler: phase attribution, critical path, hot reports.

Attach a :class:`Profiler` to a simulator before running (a probe-bus
subscriber: zero cost when detached), then snapshot a
:class:`ProfileReport`::

    rt = ParadeRuntime(...)
    prof = Profiler(rt.sim)
    rt.run(program)
    report = ProfileReport.from_profiler(prof)
    print(report.render())

CLI: ``python -m repro profile <app>`` (:func:`repro.profile.report.profile_cli`).
"""

import importlib

from repro.profile.phases import (  # noqa: F401
    ALL_GROUPS,
    ALL_PHASES,
    GROUP_OF,
    group_of,
    node_of_tid,
)
from repro.profile.profiler import Profiler, percentile  # noqa: F401

__all__ = [
    "Profiler",
    "ProfileReport",
    "CriticalPath",
    "compute_critical_path",
    "write_profile_chrome",
    "percentile",
    "ALL_PHASES",
    "ALL_GROUPS",
    "GROUP_OF",
    "group_of",
    "node_of_tid",
]

#: names loaded on first access (PEP 562): reports, the critical path and
#: the Chrome export read a finished profile, so profiling imports none
_LAZY = {
    "ProfileReport": "report",
    "CriticalPath": "critical_path",
    "compute_critical_path": "critical_path",
    "write_profile_chrome": "export",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
