"""ParADE reproduction: an OpenMP programming environment for SMP clusters.

Reproduces Kee, Kim & Ha, "ParADE: An OpenMP Programming Environment for
SMP Cluster Systems" (SC 2003) on a deterministic discrete-event
co-simulation of the paper's testbed.

Top-level convenience imports::

    from repro import ParadeRuntime, TWO_THREAD_TWO_CPU, translate

Subpackages
-----------
``repro.sim``         discrete-event simulation kernel
``repro.cluster``     cluster hardware model (nodes, CPUs, interconnects)
``repro.mpi``         thread-safe MPI subset + communication threads
``repro.vm``          simulated virtual memory + atomic page update (§5.1)
``repro.dsm``         HLRC software DSM with migratory home (§5.2)
``repro.runtime``     the ParADE runtime: fork-join, directives, hybrid switch
``repro.translator``  OpenMP 1.0 C source-to-source translator (§4)
``repro.apps``        NAS EP/CG, Helmholtz, MD workloads
``repro.bench``       harness regenerating every evaluation figure
"""

__version__ = "0.1.0"

from repro.runtime import (
    ParadeRuntime,
    RunResult,
    ExecConfig,
    ONE_THREAD_ONE_CPU,
    ONE_THREAD_TWO_CPU,
    TWO_THREAD_TWO_CPU,
    ALL_EXEC_CONFIGS,
)
from repro.cluster import ClusterConfig, GIGANET_VIA, FAST_ETHERNET_TCP
from repro.dsm.config import DsmConfig, PARADE_DSM, KDSM_BASELINE

__all__ = [
    "__version__",
    "ParadeRuntime",
    "RunResult",
    "ExecConfig",
    "ONE_THREAD_ONE_CPU",
    "ONE_THREAD_TWO_CPU",
    "TWO_THREAD_TWO_CPU",
    "ALL_EXEC_CONFIGS",
    "ClusterConfig",
    "GIGANET_VIA",
    "FAST_ETHERNET_TCP",
    "DsmConfig",
    "PARADE_DSM",
    "KDSM_BASELINE",
    "translate",
]


def __getattr__(name):
    # PEP 562: the translator (parser, C AST, both backends) is a third of
    # the package's import cost and no simulated run needs it
    if name == "translate":
        from repro.translator import translate

        return translate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
