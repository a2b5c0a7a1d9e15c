"""NAS EP kernel (NPB 2.3) — "embarrassingly parallel" (Figure 9).

Generates 2^M pairs of uniform deviates with the NAS LCG, transforms the
accepted pairs to Gaussians by the Marsaglia polar method, and tallies the
sums and the annulus counts.  Each thread seeds its own stream segment by
jump-ahead, so the only inter-node communication is the final reduction —
the paper's archetype of a workload where ParADE is "highly scalable".
In the simulated cluster a thread's tally is the kernel of its compute
burst (:meth:`repro.cluster.node.Node.compute`): it runs on a host core
while the other threads' bursts are simulated, as the node's CPUs would.

Verification constants are the published NPB reference sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    :func:`ep_segment` call and reused by each of its chunks (2 MiB): the
    uniforms overwrite the states, and x, y are their stride-2 halves."""

    def __init__(self, pairs: int):
        self.states = np.empty(2 * pairs, dtype=np.uint64)
        self.t, self.g = np.empty((2, pairs))


_TWO52 = np.uint64(0x4330000000000000)  # or-ed into s < 2**52: the double 2**52 + s


def _uniforms(states: np.ndarray) -> np.ndarray:
    """``states * R46``, bit for bit, in the states' own memory (which
    ``np.multiply(..., out=)`` would first copy)."""
    states |= _TWO52
    u = states.view(np.float64)
    u -= 2.0 ** 52
    u *= R46
    return u


def _tally(u: np.ndarray, w: _Scratch) -> Tuple[float, float, np.ndarray]:
    """Tally one chunk of the stream: u holds 2m uniforms (pairs interleaved).

    Each step is one numpy pass writing into *u* or *w*; the accepted pairs
    are gathered from *u* itself (``take`` copies a strided source)."""
    m = u.shape[0] // 2
    x, y, t, g = u[0::2], u[1::2], w.t[:m], w.g[:m]
    u *= 2.0
    u -= 1.0
    np.multiply(x, x, out=t)
    t += np.multiply(y, y, out=g)
    acc = np.flatnonzero(t <= 1.0)
    k = acc.shape[0]
    g = g[:k]
    # mode: with the default "raise", take would buffer its out= array
    tt = np.take(t, acc, out=g, mode="clip")
    f = np.log(tt, out=t[:k])
    f *= -2.0
    f /= tt
    np.sqrt(f, out=f)
    acc *= 2  # the accepted x in u
    gx = np.take(u, acc, out=g, mode="clip")
    gx *= f
    sx = float(gx.sum())
    acc += 1  # the accepted y in u
    gy = np.take(u, acc, out=g, mode="clip")
    gy *= f
    sy = float(gy.sum())
    # f > 0, so max(|gx|, |gy|) is max(|x|, |y|) * f, bit for bit
    np.abs(u, out=u)
    np.maximum(x, y, out=y)
    ik = np.take(u, acc, out=g, mode="clip")
    ik *= f
    np.copyto(acc, ik, casting="unsafe")  # astype(np.int64), into acc
    counts = np.bincount(acc, minlength=10)[:10].astype(np.float64)
    return sx, sy, counts


def ep_segment(first_pair: int, n_pairs: int, seed: int = DEFAULT_SEED) -> EpResult:
    """Tally pairs [first_pair, first_pair + n_pairs) of the global stream."""
    if seed % 2 == 0:
        # an even seed shortens the stream's period; 2**45 makes it constant
        # 0.5, whose pairs (0, 0) have no direction (log 0 in the tally)
        raise ValueError(f"EP needs an odd seed, got {seed}")
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
        dx, dy, dc = _tally(_uniforms(states), scratch)
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
        q = ctx.shared_array("ep_q", (10,))

        def body(tc, sx, sy, q):
            lo, hi = tc.for_range(0, n_pairs)
            tally = partial(ep_segment, lo, hi - lo, seed=seed)
            local = yield from tc.compute((hi - lo) * WORK_UNITS_PER_PAIR, tally)
            yield from tc.reduce_into_many(
                ((sx, local.sx), (sy, local.sy), (q, local.counts)), SUM
            )

        yield from ctx.parallel(body, sx, sy, q)
        final_sx = yield from ctx.scalar(sx).get()
        final_sy = yield from ctx.scalar(sy).get()
        counts = yield from ctx.array(q).get()
        return EpResult(float(final_sx), float(final_sy), np.asarray(counts).copy(), n_pairs)

    return program
