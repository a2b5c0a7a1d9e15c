"""Page-based software distributed shared memory.

Implements the paper's memory-consistency substrate (§5):

* a multi-threaded page state machine — INVALID, TRANSIENT, BLOCKED,
  READ_ONLY, DIRTY (Figure 5) — with the atomic-page-update strategies of
  :mod:`repro.vm` underneath;
* home-based lazy release consistency (HLRC): twins and diffs at non-home
  writers, diff merge at the home, write notices, invalidation at
  synchronisation points;
* ParADE's **migratory home** variant: at each barrier the sole modifier of
  a page becomes its new home (else the home stays), with write notices and
  new-home announcements piggybacked on the barrier messages (§5.2.2);
* a distributed lock manager with lazy-release-consistency semantics, used
  by the conventional-SDSM baseline (KDSM, [20]) and by the OpenMP lock API
  — including KDSM's busy-wait lock client that causes the paper's 2-node
  anomaly in Figure 7.

:class:`DsmSystem` is the per-cluster facade; :class:`DsmNode` the per-node
protocol agent.
"""

from repro.dsm.states import PageState, VALID_TRANSITIONS, is_valid_transition
from repro.dsm.diffs import Diff, make_twin, compute_diff, apply_diff, diff_nbytes
from repro.dsm.writenotice import WriteNotice, NoticeLog
from repro.dsm.config import (
    DsmConfig,
    PARADE_DSM,
    PARADE_ACCEL,
    PARADE_HIER,
    KDSM_BASELINE,
)
from repro.dsm.system import DsmSystem
from repro.dsm.node import DsmNode
from repro.dsm.sharedarray import SharedArray, SharedScalar

__all__ = [
    "PageState",
    "VALID_TRANSITIONS",
    "is_valid_transition",
    "Diff",
    "make_twin",
    "compute_diff",
    "apply_diff",
    "diff_nbytes",
    "WriteNotice",
    "NoticeLog",
    "DsmConfig",
    "PARADE_DSM",
    "PARADE_ACCEL",
    "PARADE_HIER",
    "KDSM_BASELINE",
    "DsmSystem",
    "DsmNode",
    "SharedArray",
    "SharedScalar",
]
