"""Run results: value + virtual-time and protocol statistics.

This module is the *aggregate* end of the observability story; the
per-event end is :mod:`repro.trace`.  Both use one vocabulary: every
key documented below appears verbatim in trace-event ``args`` or can be
recomputed by summing the corresponding trace events (e.g. ``diffs_sent``
is the count of ``dsm.page/flush`` span ``diffs`` args).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class RunResult:
    """Outcome of :meth:`ParadeRuntime.run`.

    Statistics dictionaries
    -----------------------

    ``cluster_stats`` (hardware level; from :meth:`Cluster.stats`):

    ================== ======= ====================================================
    key                unit    meaning / figure consuming it
    ================== ======= ====================================================
    virtual_time       s       end-of-run virtual clock (== ``elapsed``)
    total_messages     count   frames sent on the network (Figs 6-7 cost arguments)
    total_bytes        bytes   wire bytes incl. 42 B/frame headers
    events_processed   count   simulator events (run size / determinism checks)
    compute_time       s       per-node application CPU time, summed over nodes
    overhead_time      s       per-node protocol CPU time, summed over nodes
    ================== ======= ====================================================

    ``dsm_stats`` (protocol level; per-node
    :class:`~repro.dsm.stats.DsmNodeStats` summed over nodes, plus
    ``home_migrations``) — see :class:`DsmNodeStats` for the per-key
    documentation.  Runs with the protocol accelerator on
    (``protocol_accel=True``; docs/PERFORMANCE.md "Protocol
    optimizations") additionally populate ``notices_batched``,
    ``updates_pushed`` and ``updates_installed``; all three stay zero
    with the flags off, so a flags-off run's dict is unchanged.  Runs
    with hierarchical
    synchronization on (``hierarchical=True``; docs/PERFORMANCE.md
    "Scaling past eight nodes") likewise populate the scale-out
    counters ``barrier_relays`` (tree-barrier aggregate frames relayed
    or fanned out by interior nodes) and ``notices_merged`` (per-page
    write-notice records collapsed into an existing page entry while
    folding child contributions in-tree), while ``barrier_arrivals_rx``
    (remote barrier-arrival frames received — on the master this is
    n−1 per epoch flat but at most the tree fan-in with
    ``barrier_fanin`` set), ``lock_grants`` and ``lock_remote_grants``
    (grants total / grants to another node) count in every run and let
    flat and tree topologies be compared key-for-key.

    ``mpi_stats``:

    ============ ===== ========================================================
    p2p          count point-to-point sends (collective tree edges included)
    collectives  count collective *calls* across ranks (Bcast/Reduce/... each
                       counts once per participating rank)
    ============ ===== ========================================================

    ``chaos_stats`` (reliability level; empty unless the run had a
    ``fault_plan``; from :meth:`~repro.chaos.ChaosStats.as_dict`):

    ================= ===== ===================================================
    key               unit  meaning
    ================= ===== ===================================================
    frames            count remote frames offered to the chaos pipeline
    drops             count frames lost to a random drop draw
    flap_drops        count frames + acks lost to outage windows
    corrupts          count frames discarded by the receiver checksum
    delays            count frames that took a latency spike
    reorders          count frames held so successors overtook them
    dups_injected     count switch-duplicated deliveries injected
    retransmits       count sender retransmissions (timer fired unacked)
    max_attempts      count worst per-frame transmission count (1 = clean)
    acks_sent         count reliability acks put on the wire
    ack_drops         count acks lost (draw or flap)
    dup_suppressed    count duplicate frames discarded by ``rel_seq`` dedup
    reorder_buffered  count frames parked in the resequencing buffer
    dsm_reissues      count DSM requests idempotently re-issued
    comm_stalls       count injected comm-thread service stalls
    slowdown_windows  count node CPU-derating windows entered
    ================= ===== ===================================================

    The graceful-degradation guarantee (docs/RELIABILITY.md): whatever
    these counters say, ``value`` is bit-identical to the fault-free
    run's — chaos perturbs timing, never data.

    ``node_profile`` rows (one dict per node; consumed by
    :meth:`node_report` and the §8 adaptive-configuration search):

    ============ ======== ====================================================
    node         id       cluster node id
    mhz          MHz      modelled CPU clock (heterogeneous-cluster ablation)
    compute      s        application CPU time on this node
    overhead     s        protocol CPU time (faults, diffs, message service)
    busy_frac    0..1     CPU busy fraction (compute+overhead vs capacity)
    msgs_sent    count    frames this node put on the wire
    bytes_sent   bytes    wire bytes sent incl. headers
    ============ ======== ====================================================
    """

    value: Any
    #: end-to-end virtual seconds of the whole program
    elapsed: float
    #: virtual seconds spent inside parallel regions only
    region_time: float
    cluster_stats: Dict[str, float] = field(default_factory=dict)
    dsm_stats: Dict[str, int] = field(default_factory=dict)
    mpi_stats: Dict[str, int] = field(default_factory=dict)
    #: fault-injection + recovery counters (empty without a fault_plan)
    chaos_stats: Dict[str, int] = field(default_factory=dict)

    #: per-node rows: filled by ParadeRuntime.run
    node_profile: list = field(default_factory=list)

    def node_report(self) -> str:
        """Per-node breakdown: compute vs protocol-overhead vs idle CPU
        time, message counts and bytes — a quick profile of where the run
        went (the measurement the paper's §8 adaptive-configuration idea
        needs).

        Rows missing optional keys (e.g. profiles recorded by external
        drivers or older result files) render with zero defaults instead
        of raising; only ``node`` is required.
        """
        if not self.node_profile:
            return "(no per-node profile recorded)"
        header = (
            f"{'node':>4} {'MHz':>5} {'compute ms':>11} {'overhead ms':>12} "
            f"{'cpu busy %':>11} {'msgs out':>9} {'KB out':>8}"
        )
        lines = [header, "-" * len(header)]
        for row in self.node_profile:
            lines.append(
                f"{row.get('node', '?'):>4} {row.get('mhz', 0):>5} "
                f"{row.get('compute', 0.0) * 1e3:>11.3f} "
                f"{row.get('overhead', 0.0) * 1e3:>12.3f} "
                f"{row.get('busy_frac', 0.0) * 100:>10.1f}% "
                f"{row.get('msgs_sent', 0):>9} "
                f"{row.get('bytes_sent', 0) / 1024:>8.1f}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [
            f"elapsed        : {self.elapsed * 1e3:10.3f} ms (virtual)",
            f"region time    : {self.region_time * 1e3:10.3f} ms",
            f"messages       : {self.cluster_stats.get('total_messages', 0):>10}",
            f"bytes on wire  : {self.cluster_stats.get('total_bytes', 0):>10}",
        ]
        interesting = (
            "read_faults",
            "write_faults",
            "pages_fetched",
            "diffs_sent",
            "barriers",
            "lock_acquires",
            "home_migrations",
            "invalidations",
            # protocol-accelerator counters: zero (hence hidden) unless
            # the run had protocol_accel=True
            "notices_batched",
            "updates_pushed",
            "updates_installed",
            # scale-out counters: relay/merge stay zero (hence hidden)
            # unless the run had hierarchical=True
            "barrier_relays",
            "notices_merged",
            "lock_remote_grants",
        )
        for k in interesting:
            v = self.dsm_stats.get(k, 0)
            if v:
                lines.append(f"{k:<15}: {v:>10}")
        if self.chaos_stats.get("frames"):
            lost = (
                self.chaos_stats.get("drops", 0)
                + self.chaos_stats.get("flap_drops", 0)
                + self.chaos_stats.get("corrupts", 0)
            )
            lines.append(
                f"{'chaos':<15}: {self.chaos_stats['frames']:>10} frames, "
                f"{lost} lost, {self.chaos_stats.get('retransmits', 0)} "
                f"retransmits (recovered)"
            )
        return "\n".join(lines)
