"""DSM protocol configuration: ParADE variant vs the KDSM baseline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DsmConfig:
    """Protocol knobs distinguishing the two systems the paper compares."""

    #: shared-memory pool size (bytes); paper's CG run used 64 MB
    pool_bytes: int = 32 * 1024 * 1024
    #: migrate a page's home to its sole modifier at barriers (§5.2.2)
    home_migration: bool = True
    #: lock clients busy-wait (spin on CPU) instead of blocking — the KDSM
    #: behaviour behind the 2-node `single` anomaly (§6.1)
    lock_spin: bool = False
    #: CPU burst per spin poll while busy-waiting (seconds)
    spin_slice: float = 5e-6
    #: atomic page update strategy name (see repro.vm.strategies)
    update_strategy: str = "sysv-shm"
    #: OS cost profile name: "linux-2.4" or "aix-4.3.3"
    os_profile: str = "linux-2.4"
    #: homeless (TreadMarks-style) LRC: writers retain diffs, faulting nodes
    #: pull missing diffs from every writer (§5.2.2 argues home-based is
    #: preferable — this flag exists to measure that claim).  Barrier
    #: synchronisation only; the lock protocol requires a home directory.
    homeless: bool = False
    #: attach the happens-before sanitizer (:mod:`repro.sanitizer`) to the
    #: run: vector-clock data-race detection over every DSM access plus
    #: live protocol-invariant checks.  Diagnostic tool — adds host-side
    #: cost, never changes virtual time.
    sanitize: bool = False
    #: protocol accelerator — write-notice/diff batching: at a release
    #: (barrier flush or lock release) all diffs destined to the same home
    #: are coalesced into one ``("dsm", "dbat")`` frame per peer with a
    #: single ack, instead of one ``diff``/``diffR`` round-trip per page.
    #: Only diffs up to ``flush.BATCH_MAX_BYTES`` join the batch.  Saves
    #: per-message CPU overhead and frame headers; per-page
    #: ``diffs_sent``/``diff_bytes`` accounting is unchanged so runs stay
    #: comparable (``notices_batched`` counts the coalesced records).
    batch_notices: bool = False
    #: protocol accelerator — adaptive home migration: the barrier master
    #: keeps per-page byte-weighted writer histories (EWMA, halved every
    #: epoch) fed by sized write notices, and migrates a page's home to
    #: its dominant writer when that writer's share exceeds
    #: ``adaptive.MIGRATION_SHARE`` — including multi-writer pages, which the
    #: eager sole-writer rule (``home_migration``) can never move; the
    #: old home hands the current page copy to the new home at the
    #: barrier.  Homes additionally keep per-page *reader* histories
    #: (which nodes fetched the page recently) and, right after a barrier
    #: departure, push the fresh copy to predicted re-fetchers — turning
    #: the steady-state invalidate/fault/fetch round-trip of stable
    #: producer-consumer pages into a one-way update.  Sized notices cost
    #: 16 B on the wire instead of 12.
    adaptive_migration: bool = False
    #: hierarchical synchronization — tree barrier fan-in: 0 keeps the
    #: flat centralized master (every node sends its arrival straight to
    #: node 0, the master answers with one departure per node — O(n)
    #: serial frames at the master).  >= 2 arranges the nodes as a k-ary
    #: tree rooted at the master (parent of i is ``(i-1)//fanin``);
    #: arrivals climb the tree, each interior node merging its subtree's
    #: write notices into one page-level aggregate frame before
    #: forwarding, so the master receives at most ``fanin`` frames per
    #: epoch; departures fan out down the same tree.  Values are
    #: bit-identical either way — only message topology and timing move.
    barrier_fanin: int = 0

    def __post_init__(self):
        if self.pool_bytes <= 0:
            raise ValueError(f"pool_bytes must be > 0, got {self.pool_bytes}")
        if self.spin_slice <= 0:
            # a zero slice busy-waits at constant virtual time forever
            raise ValueError(f"spin_slice must be > 0 seconds, got {self.spin_slice}")
        if self.barrier_fanin < 0 or self.barrier_fanin == 1:
            raise ValueError(
                f"barrier_fanin must be 0 (flat) or >= 2, got {self.barrier_fanin}"
            )
        if self.homeless:
            # both accelerators ride on home-based frames homeless never sends
            for accel in ("batch_notices", "adaptive_migration"):
                if getattr(self, accel):
                    raise ValueError(
                        f"homeless=True does not combine with {accel}=True "
                        "(the accelerator is home-based only)"
                    )

    def replace(self, **kw) -> "DsmConfig":
        from dataclasses import replace as _replace

        return _replace(self, **kw)

    def accelerated(self) -> "DsmConfig":
        """This config with both protocol accelerators enabled."""
        return self.replace(batch_notices=True, adaptive_migration=True)

    def hierarchical(self, fanin: int = 4) -> "DsmConfig":
        """This config with hierarchical synchronization enabled: the tree
        barrier with the given fan-in."""
        return self.replace(barrier_fanin=fanin)


#: ParADE's DSM: HLRC + migratory home, blocking locks.
PARADE_DSM = DsmConfig(home_migration=True, lock_spin=False)

#: KDSM baseline [20]: conventional HLRC, fixed home, busy-wait lock client.
KDSM_BASELINE = DsmConfig(home_migration=False, lock_spin=True)

#: Homeless LRC ablation: TreadMarks-style diff pulling, no home directory.
HOMELESS_LRC = DsmConfig(home_migration=False, homeless=True)

#: ParADE's DSM with the protocol accelerator on: batched write-notice/diff
#: frames and adaptive (byte-weighted) home migration with update push.
#: See docs/PERFORMANCE.md "Protocol optimizations".
PARADE_ACCEL = PARADE_DSM.accelerated()

#: ParADE's DSM with hierarchical synchronization on: fan-in-4 tree
#: barrier with in-tree write-notice merging.  See docs/PERFORMANCE.md
#: "Scaling past eight nodes".
PARADE_HIER = PARADE_DSM.hierarchical()
