"""Loop scheduling.

The paper's runtime supports **static scheduling only**: iterations evenly
distributed over threads (§4.3); richer policies are future work (§8).  We
implement the block partition the Omni-derived translator emits.
"""

from __future__ import annotations

from typing import Tuple


def static_chunk(lo: int, hi: int, tid: int, nthreads: int) -> Tuple[int, int]:
    """Contiguous block of [lo, hi) for thread *tid* of *nthreads*.

    Iterations are distributed as evenly as possible: the first
    ``extra = n % nthreads`` threads get one extra iteration.
    """
    if nthreads < 1:
        raise ValueError(f"nthreads must be >= 1, got {nthreads}")
    if not (0 <= tid < nthreads):
        raise ValueError(f"tid {tid} outside [0, {nthreads})")
    n = max(0, hi - lo)
    base = n // nthreads
    extra = n % nthreads
    start = lo + tid * base + min(tid, extra)
    size = base + (1 if tid < extra else 0)
    return start, start + size
