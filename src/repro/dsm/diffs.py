"""Twin/diff machinery of lazy release consistency.

A non-home writer *twins* a page at its first write fault (pristine copy).
At a release point the runtime *diffs* the current page against the twin —
a run-length list of changed byte ranges — and ships only the diff to the
home, which merges it.  Homes never need twins: all diffs land in their
copy (§5.2.2).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: a diff is a list of (offset, bytes) runs
Diff = List[Tuple[int, bytes]]

#: wire overhead per run (offset + length fields)
RUN_HEADER_BYTES = 8


def make_twin(page: np.ndarray) -> np.ndarray:
    """Pristine copy of a page taken at the first write fault."""
    return page.copy()


def compute_diff(twin: np.ndarray, current: np.ndarray) -> Diff:
    """Run-length encode the byte positions where *current* != *twin*.

    Diffs are exact — a run never carries an unchanged byte — so
    concurrent writers of disjoint bytes of one page merge at the home.

    Run payloads are sliced from one ``tobytes()`` snapshot of the page
    and run bounds come out of numpy in bulk — no per-run array slicing.
    """
    if twin.shape != current.shape:
        raise ValueError("twin/page shape mismatch")
    idx = np.flatnonzero(twin != current)
    if idx.size == 0:
        return []
    # split into maximal runs; consecutive changed bytes have diff == 1
    breaks = np.flatnonzero(np.diff(idx) > 1)
    los = idx[np.concatenate(([0], breaks + 1))].tolist()
    his = (idx[np.concatenate((breaks, [idx.size - 1]))] + 1).tolist()
    buf = current.tobytes()
    return [(lo, buf[lo:hi]) for lo, hi in zip(los, his)]


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Merge a diff into *page* in place.

    Runs splice through one memoryview of the page: a memoryview slice
    assignment from bytes is a straight memcpy with no intermediate array,
    ~2× faster per run than ``np.frombuffer`` splicing and with none of
    the fixed cost a bulk numpy scatter pays on small diffs.
    """
    if not diff:
        return
    n = page.shape[0]
    mv = page.data
    for off, data in diff:
        end = off + len(data)
        if off < 0 or end > n:
            raise ValueError(f"diff run [{off}, {end}) outside page")
        mv[off:end] = data


def diff_nbytes(diff: Diff) -> int:
    """Bytes a diff occupies on the wire."""
    total = RUN_HEADER_BYTES * len(diff)
    for _off, data in diff:
        total += len(data)
    return total
