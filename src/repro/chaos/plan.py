"""Fault plans: declarative descriptions of what chaos injects where.

A :class:`FaultPlan` is an immutable bundle of fault specifications the
:class:`~repro.chaos.engine.ChaosEngine` evaluates against every frame the
simulated network carries:

* :class:`LinkFault` — per-frame random faults (drop, duplicate, reorder,
  corrupt, latency spike) on a link / message-class selector;
* :class:`LinkFlap` — deterministic outage windows during which every
  frame (and ack) on the matching link is lost;
* :class:`NodeSlowdown` — a CPU-speed derating window for one node (the
  "one node started swapping" scenario of heterogeneous-cluster papers);
* :class:`CommStall` — random stalls of a node's communication thread
  before it services a frame (interrupt storms, page-outs).

All randomness is drawn from per-link / per-node streams seeded from the
engine seed (see :mod:`repro.chaos.engine`), so a plan plus a seed fully
determines every injected fault: chaos runs are bit-reproducible and
trace-diffable.

Selectors use ``-1`` (nodes) / ``""`` (channel) as wildcards.  ``channel``
matches the wire tag's channel component — ``"dsm"``, ``"bar"``, ``"lk"``
for the DSM protocol and ``"mpi0"``, ``"mpi1"``, ... for communicators —
so a plan can, say, drop only page traffic while leaving barriers alone.

The :data:`PLANS` registry names the stock plans the CLI and the sweep
use; :func:`plan_by_name` looks them up.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LinkFault:
    """Per-frame random fault rates on a (src, dst, channel) selector.

    The first matching :class:`LinkFault` in the plan wins; rates are
    independent probabilities evaluated per frame in a fixed order
    (drop, corrupt, delay, reorder, duplicate) from the link's RNG stream.
    """

    src: int = -1          #: sending node, -1 = any
    dst: int = -1          #: receiving node, -1 = any
    channel: str = ""      #: wire-tag channel ("dsm", "bar", "lk", "mpi0"...), "" = any
    drop: float = 0.0      #: P(frame silently lost in the switch)
    corrupt: float = 0.0   #: P(payload mangled; receiver checksum discards it)
    delay: float = 0.0     #: P(latency spike of ``delay_s``)
    delay_s: float = 500e-6
    reorder: float = 0.0   #: P(frame held ``reorder_s`` so successors overtake it)
    reorder_s: float = 200e-6
    duplicate: float = 0.0  #: P(switch delivers the frame twice)
    ack_drop: float = 0.0   #: P(the reliability-layer ack frame is lost)

    def matches(self, src: int, dst: int, channel: str) -> bool:
        return (
            (self.src < 0 or self.src == src)
            and (self.dst < 0 or self.dst == dst)
            and (not self.channel or self.channel == channel)
        )


@dataclass(frozen=True)
class LinkFlap:
    """Deterministic outage window: all matching frames and acks are lost
    while ``t0 <= now < t1`` (virtual seconds)."""

    t0: float
    t1: float
    src: int = -1
    dst: int = -1

    def covers(self, src: int, dst: int, now: float) -> bool:
        return (
            (self.src < 0 or self.src == src)
            and (self.dst < 0 or self.dst == dst)
            and self.t0 <= now < self.t1
        )


@dataclass(frozen=True)
class NodeSlowdown:
    """Derate one node's CPUs by ``factor`` during [t0, t1)."""

    node: int
    factor: float = 2.0
    t0: float = 0.0
    t1: float = float("inf")


@dataclass(frozen=True)
class CommStall:
    """Random comm-thread stalls before servicing a frame on ``node``."""

    node: int = -1          #: -1 = every node
    prob: float = 0.0       #: P(stall before servicing one frame)
    stall_s: float = 200e-6  #: stall duration


@dataclass(frozen=True)
class ReliabilityConfig:
    """Tuning knobs of the ack/retransmit layer (see docs/RELIABILITY.md).

    The first retransmit timeout of a frame is
    ``max(min_rto, rto_rtts * ideal_rtt(frame))`` where the ideal RTT
    counts two wire latencies, serialisation, and the fixed CPU overheads;
    each further attempt multiplies by ``backoff`` and adds a seeded
    jitter draw of up to ``jitter`` of the interval (desynchronising
    retransmit storms after a link flap).
    """

    rto_rtts: float = 8.0      #: first RTO as a multiple of the frame's ideal RTT
    min_rto: float = 50e-6     #: RTO floor in virtual seconds
    backoff: float = 2.0       #: exponential backoff factor per attempt
    jitter: float = 0.25       #: max fractional jitter added per attempt
    max_retries: int = 12      #: attempts beyond the first before giving up
    dsm_rto_rtts: float = 96.0  #: DSM request re-issue timeout, in page RTTs
    dsm_max_reissues: int = 4  #: idempotent re-issues of one DSM request


@dataclass(frozen=True)
class FaultPlan:
    """One named, immutable injection scenario."""

    name: str
    description: str = ""
    faults: Tuple[LinkFault, ...] = ()
    flaps: Tuple[LinkFlap, ...] = ()
    slowdowns: Tuple[NodeSlowdown, ...] = ()
    stalls: Tuple[CommStall, ...] = ()
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing (reliability layer still runs)."""
        return not (self.faults or self.flaps or self.slowdowns or self.stalls)

    def fault_for(self, src: int, dst: int, channel: str) -> Optional[LinkFault]:
        """First matching per-frame fault rule, or None."""
        for f in self.faults:
            if f.matches(src, dst, channel):
                return f
        return None

    def flapped(self, src: int, dst: int, now: float) -> bool:
        """True when some outage window covers this link right now."""
        for fl in self.flaps:
            if fl.covers(src, dst, now):
                return True
        return False

    def stall_for(self, node: int) -> Optional[CommStall]:
        for s in self.stalls:
            if s.node < 0 or s.node == node:
                return s
        return None

    def replace(self, **kw) -> "FaultPlan":
        """Copy with replaced fields (dataclasses.replace convenience)."""
        return replace(self, **kw)


# ----------------------------------------------------------------------
# stock plans
# ----------------------------------------------------------------------
#: no injected faults; the ack/retransmit layer still runs end to end.
CLEAN = FaultPlan("clean", "reliability layer active, nothing injected")

DROP = FaultPlan(
    "drop", "5% of frames silently lost in the switch",
    faults=(LinkFault(drop=0.05),),
)

DUP = FaultPlan(
    "dup", "8% of frames delivered twice",
    faults=(LinkFault(duplicate=0.08),),
)

REORDER = FaultPlan(
    "reorder", "10% of frames held 200us so successors overtake them",
    faults=(LinkFault(reorder=0.10),),
)

CORRUPT = FaultPlan(
    "corrupt", "3% of frames arrive with a mangled payload (checksum drop)",
    faults=(LinkFault(corrupt=0.03),),
)

LATENCY_SPIKE = FaultPlan(
    "latency-spike", "10% of frames see a 1ms switch-latency spike",
    faults=(LinkFault(delay=0.10, delay_s=1e-3),),
)

FLAP = FaultPlan(
    "flap", "two full-network outages of 300us each",
    flaps=(LinkFlap(t0=0.3e-3, t1=0.6e-3), LinkFlap(t0=1.2e-3, t1=1.5e-3)),
)

SLOW_NODE = FaultPlan(
    "slow-node", "node 1 CPUs derated 3x from 0.5ms onward",
    slowdowns=(NodeSlowdown(node=1, factor=3.0, t0=0.5e-3),),
)

COMM_STALL = FaultPlan(
    "comm-stall", "5% of frame services preceded by a 200us comm-thread wedge",
    stalls=(CommStall(prob=0.05),),
)

LOSSY_MIX = FaultPlan(
    "lossy-mix", "drop+dup+reorder+spike+ack loss together (worst case)",
    faults=(
        LinkFault(drop=0.04, duplicate=0.04, reorder=0.06,
                  delay=0.06, delay_s=800e-6, ack_drop=0.05),
    ),
)

#: name -> plan; the CLI's --plan/--plans and the sweep draw from here.
PLANS: Dict[str, FaultPlan] = {
    p.name: p
    for p in (
        CLEAN, DROP, DUP, REORDER, CORRUPT, LATENCY_SPIKE,
        FLAP, SLOW_NODE, COMM_STALL, LOSSY_MIX,
    )
}

#: the default --sweep matrix (acceptance gate: results bit-identical to
#: the fault-free run under each of these)
SWEEP_PLAN_NAMES: Tuple[str, ...] = ("drop", "dup", "reorder", "latency-spike")


def plan_by_name(name: str) -> FaultPlan:
    """Look up a stock plan by (case-insensitive) name."""
    try:
        return PLANS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown fault plan {name!r}; choose from {sorted(PLANS)}"
        ) from None


def _check_record(record: dict, base_record: dict, max_retries: int) -> List[str]:
    """The guarantees of one chaos run, checked on its fleet record against
    the fault-free run's; returns failure descriptions.  The value
    comparison uses the records' SHA-256 value digests — equality of
    digests is equality of the canonical values."""
    failures = []
    if record["value_digest"] != base_record["value_digest"]:
        failures.append("numerical result differs from the fault-free run")
    cs = record["chaos_stats"]
    lost = cs.get("drops", 0) + cs.get("flap_drops", 0) + cs.get("corrupts", 0)
    if lost and not cs.get("retransmits", 0):
        failures.append(f"{lost} frames lost but zero retransmits recorded")
    if cs.get("max_attempts", 0) > max_retries + 1:
        failures.append(
            f"a frame took {cs['max_attempts']} attempts "
            f"(bound is {max_retries + 1})"
        )
    san = record.get("sanitizer")
    if san is not None and not san["ok"]:
        failures.append(
            f"sanitizer reported {san['n_findings']} finding(s) "
            f"under injected faults"
        )
    return failures


def chaos_cli(specs, args) -> int:
    """``python -m repro chaos``, the reliability gate: every app runs once
    fault-free and once per fault plan, as one fleet basket (fanned across
    ``--jobs`` workers, memoised in the run cache, verdicts the same for
    any job count).  Each chaos run must be bit-identical to its app's
    fault-free run, recover every lost frame within the retransmit bound
    and, with ``--sanitize``, stay race-free; exit 2 otherwise."""
    from repro.fleet import default_cache, run_many

    bases = {}
    for spec in specs:
        bases.setdefault(
            spec.workload, replace(spec, fault_plan=None, chaos_seed=0, sanitize=False)
        )
    fleet = run_many(
        [*bases.values(), *specs], jobs=args.jobs, cache=default_cache(args.no_cache)
    )
    print(fleet.summary())
    for rec in fleet.failures():
        print(f"FAIL: {rec['workload']} crashed: {rec.get('error')}", file=sys.stderr)
    if fleet.failures():
        return 2

    base_records = dict(zip(bases, fleet.records))
    width = max(len(app) for app in bases)
    ok = True
    shown = None
    for spec, rec in zip(specs, fleet.records[len(bases):]):
        base = base_records[spec.workload]
        if spec.workload != shown:
            shown = spec.workload
            print(f"{shown:<{width}}  fault-free: {base['virtual_s'] * 1e3:9.3f} ms  "
                  f"({base['msgs_sent']} msgs)")
        plan = plan_by_name(spec.fault_plan or CLEAN.name)
        failures = _check_record(rec, base, plan.reliability.max_retries)
        cs = rec["chaos_stats"]
        lost = cs.get("drops", 0) + cs.get("flap_drops", 0) + cs.get("corrupts", 0)
        print(f"{'':<{width}}  {plan.name:<14} {rec['virtual_s'] * 1e3:9.3f} ms  "
              f"lost={lost:<3} retx={cs.get('retransmits', 0):<3} "
              f"dup={cs.get('dup_suppressed', 0):<3} "
              f"reseq={cs.get('reorder_buffered', 0):<3} "
              f"{'FAIL' if failures else 'ok'}")
        for f in failures:
            ok = False
            print(f"{'':<{width}}    FAIL: {f}", file=sys.stderr)
    if ok:
        print("sweep: every run recovered bit-identically within the "
              "retransmit bound")
        return 0
    print("sweep: reliability guarantees violated", file=sys.stderr)
    return 2
