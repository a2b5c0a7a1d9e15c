"""Page state machine (Figure 5).

Five states per page per node:

* ``INVALID``   — no valid local copy; access faults;
* ``TRANSIENT`` — a thread is fetching/updating the page (not yet complete);
* ``BLOCKED``   — like TRANSIENT, but other threads are queued waiting for
  the update to complete and must be woken;
* ``READ_ONLY`` — valid, clean;
* ``DIRTY``     — valid, locally modified since the last synchronisation.

TRANSIENT and BLOCKED exist *because* ParADE is multi-threaded: they close
the window in which a second thread of the same process could touch a page
mid-update (§5.2.3).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Tuple


class PageState(enum.Enum):
    INVALID = "INVALID"
    TRANSIENT = "TRANSIENT"
    BLOCKED = "BLOCKED"
    READ_ONLY = "READ_ONLY"
    DIRTY = "DIRTY"

    #: position in declaration order — the member's slot in a node's page
    #: census (``DsmNode.census``) and what the legality table is keyed by.
    #: A plain int attribute (set below, once the members exist), because
    #: hashing a member itself goes through the Python-level
    #: ``Enum.__hash__``: too slow for something paid per page transition.
    idx: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"PageState.{self.name}"


for _i, _st in enumerate(PageState):
    _st.idx = _i

#: page kinds: HLRC-managed vs object-granularity (update protocol) regions
KIND_HLRC = 0
KIND_OBJECT = 1


#: legal (from, to, reason) transitions of Figure 5
VALID_TRANSITIONS: FrozenSet[Tuple[PageState, PageState, str]] = frozenset(
    {
        # first faulting thread starts the fetch
        (PageState.INVALID, PageState.TRANSIENT, "fault"),
        # a second thread faults while the fetch is in flight
        (PageState.TRANSIENT, PageState.BLOCKED, "concurrent-fault"),
        # fetch completes (read fault path)
        (PageState.TRANSIENT, PageState.READ_ONLY, "update-done"),
        (PageState.BLOCKED, PageState.READ_ONLY, "update-done"),
        # fetch completes straight into writable (write fault path)
        (PageState.TRANSIENT, PageState.DIRTY, "update-done-write"),
        (PageState.BLOCKED, PageState.DIRTY, "update-done-write"),
        # write fault on a clean valid page
        (PageState.READ_ONLY, PageState.DIRTY, "write-fault"),
        # synchronisation flushes local modifications
        (PageState.DIRTY, PageState.READ_ONLY, "flush"),
        # incoming write notice invalidates the (clean) copy; a DIRTY one
        # is flushed first — invalidating it would drop its twin un-sent
        (PageState.READ_ONLY, PageState.INVALID, "invalidate"),
    }
)


#: VALID_TRANSITIONS keyed by ``(src.idx, dst.idx, reason)`` — ints and a
#: str hash in C, so the per-transition check makes no ``Enum.__hash__`` call
_VALID_KEYS: FrozenSet[Tuple[int, int, str]] = frozenset(
    (src.idx, dst.idx, reason) for src, dst, reason in VALID_TRANSITIONS
)


def is_valid_transition(src: PageState, dst: PageState, reason: str) -> bool:
    return (src.idx, dst.idx, reason) in _VALID_KEYS


class IllegalTransition(Exception):
    def __init__(self, page: int, src: PageState, dst: PageState, reason: str):
        super().__init__(
            f"page {page}: illegal transition {src.name} -> {dst.name} ({reason})"
        )
        self.page = page
        self.src = src
        self.dst = dst
        self.reason = reason
