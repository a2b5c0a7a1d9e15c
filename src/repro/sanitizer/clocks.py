"""Vector clocks over dynamic thread identities.

Simulation threads are identified by their process labels (``master``,
``agent[2]``, ``omp[1.0]r3``, ``comm[0]`` ...), which are created and
retired as parallel regions come and go — so clocks are sparse dicts
rather than fixed-width arrays.  A clock maps ``tid -> epoch`` with the
usual component-wise partial order; absent components are zero.
"""

from __future__ import annotations

from typing import Dict

#: a vector clock: thread label -> last epoch of that thread known here
VectorClock = Dict[str, int]


def vc_join(into: VectorClock, other: VectorClock) -> None:
    """Component-wise max, in place (``into |= other``)."""
    for tid, c in other.items():
        if c > into.get(tid, 0):
            into[tid] = c


def vc_copy(vc: VectorClock) -> VectorClock:
    return dict(vc)


def ordered_before(tid: str, epoch: int, observer: VectorClock) -> bool:
    """True iff the access ``(tid, epoch)`` happens-before the state
    summarised by *observer* (FastTrack's epoch-vs-clock test)."""
    return epoch <= observer.get(tid, 0)
