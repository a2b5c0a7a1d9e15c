"""repro.chaos — seeded fault injection + reliability for the simulated cluster.

Attach a :class:`ChaosEngine` built from a :class:`FaultPlan` to a run and
the network starts losing, duplicating, reordering, delaying and mangling
frames — while an ack/retransmit layer recovers every one of them, so the
program's numerical results stay bit-identical to the fault-free run.
``python -m repro chaos all --plan sweep`` asserts exactly that over
the registered workloads.  See docs/RELIABILITY.md for the fault model and guarantees.
"""

from repro.chaos.plan import (
    CLEAN,
    COMM_STALL,
    CORRUPT,
    DROP,
    DUP,
    FLAP,
    LATENCY_SPIKE,
    LOSSY_MIX,
    PLANS,
    REORDER,
    SLOW_NODE,
    SWEEP_PLAN_NAMES,
    CommStall,
    FaultPlan,
    LinkFault,
    LinkFlap,
    NodeSlowdown,
    ReliabilityConfig,
    plan_by_name,
)
from repro.chaos.engine import ChaosDeliveryError, ChaosEngine, ChaosStats

__all__ = [
    "ChaosDeliveryError",
    "ChaosEngine",
    "ChaosStats",
    "CommStall",
    "FaultPlan",
    "LinkFault",
    "LinkFlap",
    "NodeSlowdown",
    "ReliabilityConfig",
    "PLANS",
    "SWEEP_PLAN_NAMES",
    "plan_by_name",
    "CLEAN",
    "DROP",
    "DUP",
    "REORDER",
    "CORRUPT",
    "LATENCY_SPIKE",
    "FLAP",
    "SLOW_NODE",
    "COMM_STALL",
    "LOSSY_MIX",
]
