"""The ParADE runtime system (§3, §5).

The runtime provides the single system image: fork-join parallel regions
spanning the cluster, a static loop scheduler, hierarchical synchronisation
(pthread-style intra-node + message-passing inter-node), and the **hybrid
consistency switch** — shared data ≤ 256 bytes guarded by synchronisation
directives is kept consistent with explicit collectives (update protocol),
everything else with HLRC (invalidate protocol).

Two execution modes implement the paper's comparison, each one thread
context class (one translation of Figs 2–3), chosen once by
:class:`ParadeRuntime`'s constructor:

* ``mode="parade"`` — ``context.ParadeThreadCtx``, the hybrid model:
  ``critical``/``atomic``/``reduction`` map to ``MPI_Allreduce``,
  ``single`` to ``MPI_Bcast`` (§4.2/§4.3);
* ``mode="sdsm"``   — :class:`ThreadCtx`, the conventional SDSM
  translation: every synchronisation directive becomes a distributed
  lock + shared-page traffic + barriers (the KDSM baseline of §6.1).
"""

from repro.runtime.exec_config import (
    ExecConfig,
    ONE_THREAD_ONE_CPU,
    ONE_THREAD_TWO_CPU,
    TWO_THREAD_TWO_CPU,
    ALL_EXEC_CONFIGS,
)
from repro.runtime.scheduler import static_chunk
from repro.runtime.team import NodeTeam
from repro.runtime.context import ThreadCtx, MasterCtx
from repro.runtime.results import RunResult
from repro.runtime.runtime import ParadeRuntime, HYBRID_THRESHOLD_BYTES, hybrid_row

__all__ = [
    "ExecConfig",
    "ONE_THREAD_ONE_CPU",
    "ONE_THREAD_TWO_CPU",
    "TWO_THREAD_TWO_CPU",
    "ALL_EXEC_CONFIGS",
    "static_chunk",
    "NodeTeam",
    "ThreadCtx",
    "MasterCtx",
    "RunResult",
    "ParadeRuntime",
    "HYBRID_THRESHOLD_BYTES",
    "hybrid_row",
]
