"""Write notices.

A write notice announces "node N modified page P during interval I".  At a
synchronisation point the consumer invalidates its copy of every noticed
page it is not the home of.  ParADE aggregates notices at the barrier
master and piggybacks them on barrier messages (§5.2.2); the lock manager
hands them out with lock grants, grouped by interval
(:mod:`~repro.dsm.intervals`).

The protocol accelerator (docs/PERFORMANCE.md "Protocol optimizations")
extends the barrier use: with ``adaptive_migration`` notices carry the
diff byte count (``nbytes``) so the barrier master can keep byte-weighted
writer histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple


@dataclass(frozen=True)
class WriteNotice:
    page: int
    writer: int
    interval: int
    #: diff bytes this write produced (0 when unsized) — the home
    #: writer, which makes no diff, is credited a full page as documented
    #: in the config.  Read, and priced on the wire, only when sized
    #: notices are in use (``DsmConfig.adaptive_migration``)
    nbytes: int = 0

    #: wire size of one notice record
    NBYTES = 12
    #: wire size of one *sized* notice record (adaptive migration on)
    NBYTES_SIZED = 16


def fold_latest(log: Dict[Tuple[int, int], WriteNotice], notices: Iterable[WriteNotice]) -> None:
    """Fold *notices* into *log* in place, keyed ``(page, writer)``: one
    notice per pair, the latest interval's, at the place of the pair's
    first notice (keeping message layouts deterministic).

    A node that wrote a page in several intervals queued one notice per
    interval, but a consumer only needs page/writer pairs — the others
    add wire bytes without information.  The latest interval is the one
    kept because it covers the earlier ones: a lock grant filters notices
    by interval against the requester's vector
    (:mod:`~repro.dsm.intervals`), and a requester that has seen an
    earlier interval of the pair must still learn of the latest.
    """
    for wn in notices:
        cur = log.get((wn.page, wn.writer))
        if cur is None or wn.interval > cur.interval:
            log[wn.page, wn.writer] = wn


def merge_notices(per_node_notices: Dict[int, List[WriteNotice]]) -> Dict[int, Set[int]]:
    """Collapse notices into page -> set of writers (barrier master's view)."""
    writers: Dict[int, Set[int]] = {}
    for node, notices in per_node_notices.items():
        for wn in notices:
            writers.setdefault(wn.page, set()).add(wn.writer)
    return writers


def fold_writer_sets(dst: Dict[int, Set[int]], src: Dict[int, Iterable[int]]) -> int:
    """Fold a page -> writers aggregate *src* into *dst* in place.

    The in-tree merge step of the hierarchical barrier
    (``DsmConfig.barrier_fanin``): each interior tree node folds its own
    and its children's page-level aggregates into one map before
    forwarding a single frame to its parent, so the master sees O(fan-in)
    frames instead of O(n).  Returns the number of incoming page records
    that collapsed into an already-present page entry — the notice
    records the merge kept off the next hop's wire
    (``DsmNodeStats.notices_merged``).
    """
    merged = 0
    for page, ws in src.items():
        cur = dst.get(page)
        if cur is None:
            dst[page] = set(ws)
        else:
            cur.update(ws)
            merged += 1
    return merged


def fold_writer_bytes(dst: Dict[int, Dict[int, int]], src: Dict[int, Dict[int, int]]) -> None:
    """Fold a page -> {writer: bytes} aggregate *src* into *dst* in place
    (sized notices climbing the barrier tree; the same summing rule as
    :func:`merge_notice_bytes`, applied hop by hop)."""
    for page, by_writer in src.items():
        cur = dst.setdefault(page, {})
        for w, nb in by_writer.items():
            cur[w] = cur.get(w, 0) + nb


def merge_notice_bytes(per_node_notices: Dict[int, List[WriteNotice]]) -> Dict[int, Dict[int, int]]:
    """Collapse sized notices into page -> {writer: bytes written}.

    Feeds the adaptive-migration EWMA at the barrier master; duplicate
    ``(page, writer)`` notices (already deduped at arrival) would sum.
    """
    by_page: Dict[int, Dict[int, int]] = {}
    for node, notices in per_node_notices.items():
        for wn in notices:
            hist = by_page.setdefault(wn.page, {})
            hist[wn.writer] = hist.get(wn.writer, 0) + wn.nbytes
    return by_page
