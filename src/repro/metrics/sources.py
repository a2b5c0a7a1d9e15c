"""Stock sampling sources: one snapshot function per stack layer.

Each source is a closure over live simulation objects returning a flat
``{name: number}`` dict; the sampler records every key as the
time-series ``<prefix>/<name>``.  Sources only *read* state — they run
inside the event loop, and writing anything (scheduling, CPU charges,
RNG draws) would perturb the schedule and break the bit-identical
guarantee of observed runs.

``install_default_sources`` wires the full set onto a
:class:`~repro.metrics.sampler.Metrics` for a
:class:`~repro.runtime.ParadeRuntime` (what ``ParadeRuntime(metrics=True)``
calls); the individual factories are exposed for custom drivers that
only have a cluster or a bare simulator.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict

from repro.dsm.states import PageState

#: series names of the DSM page census, in ``PageState.idx`` order
_CENSUS_KEYS = tuple(f"pages_{st.name.lower()}" for st in PageState)

#: the per-node ``DsmNodeStats`` counters sampled, summed over nodes
_DSM_KEYS = (
    "read_faults", "write_faults", "pages_fetched", "fetch_bytes",
    "diffs_sent", "diff_bytes", "invalidations", "lock_acquires",
    "barriers", "notices_batched", "updates_pushed",
    "updates_installed", "barrier_arrivals_rx",
)
_dsm_counters = attrgetter(*_DSM_KEYS)
_census = attrgetter("census")
_stats = attrgetter("stats")


def sim_source(sim) -> Callable[[], Dict[str, float]]:
    """Event-loop health: cumulative events + events per virtual second
    since the previous sample (the virtual-rate face of ``events/s``)."""
    last = {"t": 0.0, "events": 0}

    def snapshot() -> Dict[str, float]:
        now = sim.now
        events = sim.events_processed
        dt = now - last["t"]
        rate = (events - last["events"]) / dt if dt > 0.0 else 0.0
        last["t"] = now
        last["events"] = events
        return {"events_total": events, "events_per_vs": rate}

    return snapshot


def cluster_source(cluster) -> Callable[[], Dict[str, float]]:
    """Hardware occupancy: per-node CPU busy fraction (current holders
    over capacity, derated by the live ``speed_factor`` so a chaos
    slowdown window shows as lost effective capacity), NIC queue, inbox
    depth, and the cumulative wire totals."""

    # per node, its five series names, built once
    names = [
        (node, *(f"node{node.id}/{key}" for key in (
            "cpu_busy", "cpu_queue", "nic_queue", "inbox_depth", "msgs_sent")))
        for node in cluster.nodes
    ]

    def snapshot() -> Dict[str, float]:
        out: Dict[str, float] = {
            "msgs_total": cluster.network.total_messages,
            "bytes_total": cluster.network.total_bytes,
        }
        for node, busy, cpu_queue, nic_queue, inbox, sent in names:
            out[busy] = len(node.cpus.users) / node.cpus.capacity * node.speed_factor
            out[cpu_queue] = node.cpus.queue_length
            out[nic_queue] = node.nic_tx.queue_length
            out[inbox] = len(node.inbox)
            out[sent] = node.msgs_sent
        return out

    return snapshot


def dsm_source(dsm) -> Callable[[], Dict[str, float]]:
    """Protocol state: cluster-wide page-state census (how many copies
    sit INVALID / READ_ONLY / DIRTY / in an update transient right now)
    plus the cumulative fault / fetch / diff / sync counters whose
    per-sample deltas are the live rates of Figures 6-10."""

    def snapshot() -> Dict[str, float]:
        # each node maintains its own census and counters: summing them
        # costs O(nodes), whatever the pool size, and builds no stats dict
        nodes = dsm.nodes
        out: Dict[str, float] = dict(
            zip(_CENSUS_KEYS, map(sum, zip(*map(_census, nodes))))
        )
        counters = zip(*map(_dsm_counters, map(_stats, nodes)))
        out.update(zip(_DSM_KEYS, map(sum, counters)))
        out["home_migrations"] = dsm.stats_home_migrations
        return out

    return snapshot


def mpi_source(comm) -> Callable[[], Dict[str, float]]:
    """Message-passing layer: cumulative point-to-point sends and
    collective calls."""

    def snapshot() -> Dict[str, float]:
        return {"p2p_total": comm.n_p2p, "collectives_total": comm.n_collectives}

    return snapshot


def runtime_source(runtime) -> Callable[[], Dict[str, float]]:
    """Fork-join engine: regions forked so far and virtual seconds spent
    inside parallel regions."""

    def snapshot() -> Dict[str, float]:
        return {
            "regions_total": runtime._region_seq,
            "region_time_s": runtime.region_time,
        }

    return snapshot


def chaos_source(engine) -> Callable[[], Dict[str, float]]:
    """Reliability layer: cumulative injection/recovery counters plus the
    two live depths — frames awaiting ack (retransmit exposure) and
    frames parked in resequencing buffers (reorder exposure)."""

    def snapshot() -> Dict[str, float]:
        s = engine.stats
        return {
            "drops_total": s.drops + s.flap_drops + s.corrupts,
            "retransmits_total": s.retransmits,
            "dup_suppressed_total": s.dup_suppressed,
            "outstanding_frames": engine.outstanding_frames,
            "resequencing_depth": sum(
                len(ls.rx_buf) for ls in engine._links.values()
            ),
        }

    return snapshot


def install_default_sources(mx, runtime) -> None:
    """Wire the full stock source set for one
    :class:`~repro.runtime.ParadeRuntime` (``sim`` / ``cluster`` / ``dsm``
    / ``mpi`` / ``runtime``, and ``chaos`` when the run has a fault plan).
    """
    mx.add_source("sim", sim_source(runtime.sim))
    mx.add_source("cluster", cluster_source(runtime.cluster))
    mx.add_source("dsm", dsm_source(runtime.dsm))
    mx.add_source("mpi", mpi_source(runtime.comm))
    mx.add_source("runtime", runtime_source(runtime))
    if runtime.chaos is not None:
        mx.add_source("chaos", chaos_source(runtime.chaos))
