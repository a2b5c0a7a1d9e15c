"""NAS EP kernel (NPB 2.3) — "embarrassingly parallel" (Figure 9).

Generates 2^M pairs of uniform deviates with the NAS LCG, transforms the
accepted pairs to Gaussians by the Marsaglia polar method, and tallies the
sums and the annulus counts.  Each thread seeds its own stream segment by
jump-ahead, so the only inter-node communication is the final reduction —
the paper's archetype of a workload where ParADE is "highly scalable".

Verification constants are the published NPB reference sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.nas_random import NasRandom, DEFAULT_SEED, R46
from repro.mpi.ops import SUM

#: NPB class name -> M (number of pairs = 2^M)
CLASSES: Dict[str, int] = {"T": 16, "S": 24, "W": 25, "A": 28, "B": 30}

#: published reference sums (sx, sy) per class
REFERENCE: Dict[str, Tuple[float, float]] = {
    "S": (-3.247834652034740e3, -6.958407078382297e3),
    "W": (-2.863319731645753e3, -6.320053679109499e3),
    "A": (-4.295875165629892e3, -1.580732573678431e4),
}

#: simulator cost model: work units charged per generated pair
WORK_UNITS_PER_PAIR = 60.0

#: vectorised chunk size (pairs) per compute burst
CHUNK_PAIRS = 1 << 16


@dataclass
class EpResult:
    sx: float
    sy: float
    counts: np.ndarray
    n_pairs: int

    def verify(self, klass: str, rtol: float = 1e-8) -> bool:
        """Check against the published NPB sums (classes S/W/A)."""
        if klass not in REFERENCE:
            raise KeyError(f"no reference sums for class {klass!r}")
        rx, ry = REFERENCE[klass]
        return (
            abs(self.sx - rx) <= rtol * abs(rx)
            and abs(self.sy - ry) <= rtol * abs(ry)
        )


class _Scratch:
    """Every array one chunk of the tally needs, allocated once per
    :func:`ep_segment` call and reused by each of its chunks."""

    def __init__(self, pairs: int):
        self.states = np.empty(2 * pairs, dtype=np.uint64)
        self.u = np.empty(2 * pairs)
        self.x, self.y, self.t, self.f, self.g = np.empty((5, pairs))


def _tally(u: np.ndarray, w: _Scratch) -> Tuple[float, float, np.ndarray]:
    """Tally one chunk of the stream: u holds 2m uniforms (pairs interleaved).

    Each step is one numpy pass writing into *w*; the accepted pairs are
    gathered through one index array."""
    m = u.shape[0] // 2
    x, y, t = w.x[:m], w.y[:m], w.t[:m]
    np.multiply(u[0::2], 2.0, out=x)
    x -= 1.0
    np.multiply(u[1::2], 2.0, out=y)
    y -= 1.0
    np.multiply(x, x, out=t)
    t += np.multiply(y, y, out=w.f[:m])
    acc = np.flatnonzero(t <= 1.0)
    k = acc.shape[0]
    # mode: with the default "raise", take would buffer its out= array
    tt = np.take(t, acc, out=w.g[:k], mode="clip")
    f = np.log(tt, out=w.f[:k])
    f *= -2.0
    f /= tt
    np.sqrt(f, out=f)
    # t and tt are dead from here: their arrays take the Gaussians
    gx = np.take(x, acc, out=w.t[:k], mode="clip")
    gx *= f
    gy = np.take(y, acc, out=w.g[:k], mode="clip")
    gy *= f
    sx, sy = float(gx.sum()), float(gy.sum())
    np.abs(gx, out=gx)
    np.abs(gy, out=gy)
    ik = np.maximum(gx, gy, out=gx).astype(np.int64)
    counts = np.bincount(ik, minlength=10)[:10].astype(np.float64)
    return sx, sy, counts


def ep_segment(first_pair: int, n_pairs: int, seed: int = DEFAULT_SEED) -> EpResult:
    """Tally pairs [first_pair, first_pair + n_pairs) of the global stream."""
    rng = NasRandom(seed)
    rng.skip(2 * first_pair)
    sx = sy = 0.0
    counts = np.zeros(10)
    scratch = _Scratch(min(CHUNK_PAIRS, n_pairs))
    remaining = n_pairs
    while remaining > 0:
        m = min(CHUNK_PAIRS, remaining)
        states = scratch.states[: 2 * m]
        rng.fill(states)
        dx, dy, dc = _tally(np.multiply(states, R46, out=scratch.u[: 2 * m]), scratch)
        sx += dx
        sy += dy
        counts += dc
        remaining -= m
    return EpResult(sx, sy, counts, n_pairs)


def ep_reference(klass: str = "S", seed: int = DEFAULT_SEED) -> EpResult:
    """Sequential numpy reference for a whole class."""
    n = 1 << CLASSES[klass]
    return ep_segment(0, n, seed=seed)


# ----------------------------------------------------------------------
# OpenMP version for the simulated cluster
# ----------------------------------------------------------------------
def make_program(klass: str = "T", seed: int = DEFAULT_SEED):
    """Build the master program ``program(ctx) -> EpResult``.

    OpenMP shape: one ``parallel`` region; the per-thread tallies are
    ``reduction(+: sx, sy, q[0..9])`` — exactly the clause ParADE maps to a
    single merged ``MPI_Allreduce`` (§4.2: multiple reduction variables
    merged into a structure-type value).
    """
    n_pairs = 1 << CLASSES[klass]

    def program(ctx):
        sx = ctx.shared_scalar("ep_sx")
        sy = ctx.shared_scalar("ep_sy")
        q = ctx.shared_array("ep_q", (10,), force_object=(ctx.runtime.mode == "parade"))

        def body(tc, sx, sy, q):
            lo, hi = tc.for_range(0, n_pairs)
            local = ep_segment(lo, hi - lo, seed=seed)
            yield from tc.compute((hi - lo) * WORK_UNITS_PER_PAIR)
            if tc.runtime.mode == "parade":
                # merged reduction: (sx, sy, counts-tuple) in ONE collective
                merged = (local.sx, local.sy, tuple(local.counts.tolist()))

                def inter(part):
                    total = yield from tc.team.rank_comm.allreduce(part, op=SUM)
                    tc.scalar(sx).raw_set(total[0])
                    tc.scalar(sy).raw_set(total[1])
                    tc.array(q).raw()[:] = np.asarray(total[2])
                    return total

                yield from tc.team.combining(tc._key("ep_red"), merged, SUM, inter)
            else:
                # conventional translation: three lock-guarded accumulations
                yield from tc.reduce_into(sx, local.sx, SUM)
                yield from tc.reduce_into(sy, local.sy, SUM)
                qv = tc.array(q)
                lock_id = tc.runtime.lock_id_for("ep_q")
                yield from tc.dsm_node.lock_acquire(lock_id)
                try:
                    cur = yield from qv.get()
                    yield from qv.set(np.asarray(cur) + local.counts)
                finally:
                    yield from tc.dsm_node.lock_release(lock_id)
                yield from tc.barrier()

        yield from ctx.parallel(body, sx, sy, q)
        final_sx = yield from ctx.scalar(sx).get()
        final_sy = yield from ctx.scalar(sy).get()
        counts = yield from ctx.array(q).get()
        return EpResult(float(final_sx), float(final_sy), np.asarray(counts).copy(), n_pairs)

    return program
