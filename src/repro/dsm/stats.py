"""Per-node DSM protocol counters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class DsmNodeStats:
    """Per-node DSM protocol counters.

    The sum over nodes (plus the system-wide ``home_migrations``) becomes
    ``RunResult.dsm_stats``.  Each counter has a per-event counterpart in
    :mod:`repro.trace` (category/name given below), so aggregates and
    traces speak one vocabulary.

    ====================  ======  =======================================  ==========================
    key                   unit    meaning (trace counterpart)              paper figure it feeds
    ====================  ======  =======================================  ==========================
    read_faults           count   read faults on INVALID pages             Figs 8-11 (SDSM overhead)
                                  (``dsm.page/fault`` kind=read)
    write_faults          count   write faults: INVALID fetch-for-write    Figs 8-11
                                  or READ_ONLY upgrade
                                  (``dsm.page/fault`` kind=write[-upgrade])
    pages_fetched         count   whole pages fetched from their homes     Figs 8-11
                                  (``dsm.page/fetch``)
    fetch_bytes           bytes   payload bytes of those fetches           traffic ablations
    diffs_sent            count   diffs shipped to homes at releases       Fig 6 (critical), Figs 8-11
                                  (``dsm.page/flush`` args ``diffs``)
    diff_bytes            bytes   diff payload bytes                       traffic ablations
    twins_created         count   twin copies made before first write      Fig 6 (twin/diff cost)
                                  (``dsm.page/twin``)
    barriers              count   HLRC barriers entered by this node       Figs 8-11 (barrier cost)
                                  (``dsm.barrier/barrier`` spans)
    lock_acquires         count   distributed lock acquires                Fig 6 (KDSM lock path)
                                  (``dsm.lock/acquire`` spans)
    lock_remote_acquires  count   ... whose manager is on another node     Fig 6 (lock hops)
                                  (``dsm.lock/acquire`` remote=True)
    invalidations         count   pages invalidated by write notices       Figs 8-11
                                  (``dsm.page/page-state`` dst=INVALID)
    blocked_waits         count   threads parked on an in-flight page      §5.2.3 TRANSIENT/BLOCKED
                                  update (``dsm.page/page-wait`` spans)
    fetches_served        count   page fetches served as home              comm-thread contention,
                                  (``dsm.page/serve-fetch``)               §6.2 configurations
    dsm_reissues          count   fetch requests idempotently              reliability ablations
                                  re-issued after a quiet RTO, chaos       (docs/RELIABILITY.md)
                                  runs only (``chaos/dsm-reissue``)
    stale_replies         count   duplicate/late replies discarded         reliability ablations
                                  after a re-issue already resolved
                                  the request (``chaos/stale-reply``)
    notices_batched       count   per-page diff records coalesced into     protocol-accelerator
                                  batched ``dbat`` frames — messages        ablations
                                  saved is this minus the frame count      (docs/PERFORMANCE.md)
                                  (``dsm.page/diff-batch`` args
                                  ``entries``)
    updates_pushed        count   fresh page copies pushed by this home    protocol-accelerator
                                  to predicted re-fetchers after a         ablations
                                  barrier departure (``dsm.page/push``)
    updates_installed     count   pushed copies this node installed —      protocol-accelerator
                                  faults it will never take; pushes        ablations
                                  minus installs were dropped as stale
                                  (``dsm.page/push-apply``)
    barrier_arrivals_rx   count   barrier arrival frames received from     scale-out ablations
                                  *other* nodes: n-1 per epoch at a flat   (docs/PERFORMANCE.md
                                  master, <= fan-in per epoch per tree     "Scaling past
                                  node with ``barrier_fanin`` on           eight nodes")
                                  (``dsm.barrier`` arrive/relay receipt)
    barrier_relays        count   tree frames this node relayed as an      scale-out ablations
                                  interior node: subtree aggregates
                                  forwarded up + departure frames fanned
                                  out down (``dsm.barrier/relay``,
                                  ``dsm.barrier/fanout``)
    notices_merged        count   page records collapsed into an already   scale-out ablations
                                  aggregated page entry while climbing
                                  the barrier tree — notice records the
                                  in-tree merge kept off the wire
                                  (``dsm.barrier/relay`` args ``pages``)
    lock_grants           count   lock grants issued by this node as       lock-manager load
                                  manager (``dsm.lock/grant``)             (``lock_id % n`` homes)
    lock_remote_grants    count   ... granted to another node              lock-manager load
                                  (``dsm.lock/grant`` requester)
    ====================  ======  =======================================  ==========================

    ``RunResult.dsm_stats`` additionally carries the system-wide
    ``home_migrations`` counter (eager sole-writer or adaptive
    byte-weighted migrations, by :class:`~repro.dsm.config.DsmConfig`).
    """

    read_faults: int = 0
    write_faults: int = 0
    pages_fetched: int = 0
    fetch_bytes: int = 0
    diffs_sent: int = 0
    diff_bytes: int = 0
    twins_created: int = 0
    barriers: int = 0
    lock_acquires: int = 0
    lock_remote_acquires: int = 0
    invalidations: int = 0
    blocked_waits: int = 0
    fetches_served: int = 0
    dsm_reissues: int = 0
    stale_replies: int = 0
    notices_batched: int = 0
    updates_pushed: int = 0
    updates_installed: int = 0
    barrier_arrivals_rx: int = 0
    barrier_relays: int = 0
    notices_merged: int = 0
    lock_grants: int = 0
    lock_remote_grants: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)
