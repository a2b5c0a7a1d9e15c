"""Twin/diff machinery of lazy release consistency.

A non-home writer *twins* a page at its first write fault (pristine copy).
At a release point the runtime *diffs* the current page against the twin —
the changed bytes and where they sit — and ships only the diff to the
home, which merges it.  Homes never need twins: all diffs land in their
copy (§5.2.2).
"""

from __future__ import annotations

import numpy as np

#: wire overhead per run (offset + length fields)
RUN_HEADER_BYTES = 8


class Diff:
    """The bytes of a page that changed: ``page[mask] == vals``.

    On the wire a diff is a run-length list — one header per maximal run
    of changed bytes plus the bytes themselves — but the cost model needs
    only the *number* of runs, so ``nbytes`` carries that and the runs
    themselves are never materialised.  An empty diff is falsy."""

    __slots__ = ("mask", "vals", "nbytes")

    def __init__(self, mask: np.ndarray, vals: np.ndarray, nbytes: int):
        self.mask = mask
        self.vals = vals
        self.nbytes = nbytes

    def __bool__(self) -> bool:
        return self.nbytes != 0


#: the diff of an unchanged page (shared: it holds no mask)
EMPTY_DIFF = Diff(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.uint8), 0)


def make_twin(page: np.ndarray) -> np.ndarray:
    """Pristine copy of a page taken at the first write fault."""
    return page.copy()


def compute_diff(twin: np.ndarray, current: np.ndarray) -> Diff:
    """The byte positions where *current* != *twin*, and their new values.

    Diffs are exact — no unchanged byte is carried — so concurrent
    writers of disjoint bytes of one page merge at the home.  One
    compare, one gather, and the run count read off the mask's rising
    edges; no per-run work.
    """
    if twin.shape != current.shape:
        raise ValueError("twin/page shape mismatch")
    mask = twin != current
    vals = current[mask]
    if not vals.size:
        return EMPTY_DIFF
    runs = int(np.count_nonzero(mask[1:] > mask[:-1])) + int(mask[0])
    return Diff(mask, vals, RUN_HEADER_BYTES * runs + vals.size)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Merge a diff into *page* in place (one masked scatter)."""
    if not diff:
        return
    if diff.mask.shape != page.shape:
        raise ValueError(f"diff of a {diff.mask.shape[0]}-byte page applied to {page.shape[0]} bytes")
    page[diff.mask] = diff.vals


def diff_nbytes(diff: Diff) -> int:
    """Bytes a diff occupies on the wire."""
    return diff.nbytes
