"""Virtual-time profiler: phase attribution, critical path, hot reports.

Attach a :class:`Profiler` to a simulator before running (a probe-bus
subscriber: zero cost when detached), then snapshot a
:class:`ProfileReport`::

    rt = ParadeRuntime(...)
    prof = Profiler(rt.sim)
    rt.run(program)
    report = ProfileReport.from_profiler(prof)
    print(report.render())

CLI: ``python -m repro.profile <app>`` — see :mod:`repro.profile.__main__`.
"""

from repro.profile.phases import (  # noqa: F401
    ALL_GROUPS,
    ALL_PHASES,
    GROUP_OF,
    group_of,
    node_of_tid,
)
from repro.profile.profiler import Profiler, percentile  # noqa: F401
from repro.profile.critical_path import CriticalPath, compute_critical_path  # noqa: F401
from repro.profile.report import ProfileReport  # noqa: F401
from repro.profile.export import write_profile_chrome  # noqa: F401

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
