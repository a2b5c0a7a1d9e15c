"""NAS CG kernel (NPB 2.3) — conjugate gradient (Figure 8).

Estimates the largest eigenvalue of a sparse symmetric positive-definite
matrix by inverse power iteration; each outer iteration approximately
solves ``A z = x`` with 25 unpreconditioned CG steps and updates
``zeta = shift + 1 / (x·z)``.

The matrix is generated by a faithful port of NPB's ``makea`` (random
sparse outer products with geometrically decaying weights + ``rcond-shift``
on the diagonal), driven by the exact NAS LCG stream — so the published
verification zetas must (and do) match.

On the cluster runtime the matrix rows are block-partitioned; the matvec
reads the whole ``p`` vector (the paper: "CG experiences relatively larger
page migration ... than other programs"), and the dot products are
``reduction`` clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.nas_random import NasRandom
from repro.mpi.ops import SUM

#: class -> (na, nonzer, shift, niter)
CLASSES: Dict[str, Tuple[int, int, float, int]] = {
    "T": (240, 5, 6.0, 5),       # tiny, for the simulator / tests
    "S": (1400, 7, 10.0, 15),
    "W": (7000, 8, 12.0, 15),
    "A": (14000, 11, 20.0, 15),
}

#: published verification zetas
REFERENCE_ZETA: Dict[str, float] = {
    "S": 8.5971775078648,
    "W": 10.362595087124,
    "A": 17.130235054029,
}

RCOND = 0.1
CG_ITMAX = 25

#: NAS RNG state for matrix generation
_TRAN0 = 314159265


def _sprnvc_vectors(na: int, nonzer: int):
    """Every outer iteration's sparse vector, flat: (positions, values,
    short rows).

    ``sprnvc`` picks ``nonzer`` distinct random positions with random
    values, walking the stream pair by pair (value, then position) —
    how many pairs a row consumes depends on the draws, so the stream is
    drawn in blocks and walked over plain ints.  ``vecset`` then gives
    the row's own position the value 0.5, appending it unless it was
    drawn: a row has ``nonzer + 1`` entries, a *short* row ``nonzer``.
    """
    rng = NasRandom(_TRAN0)
    rng.skip(1)  # main() consumes one value before makea
    nn1 = 1
    while nn1 < na:
        nn1 <<= 1

    elt = np.empty(0)  # the drawn values, one per pair
    loc = []  # the drawn 0-based positions
    pos = []
    pick = []  # index into elt of each entry's value; -1 for 0.5
    short = []
    k = 0
    for row in range(na):
        iv = []
        while len(iv) < nonzer:
            if k == len(loc):
                u = rng.generate(2 * nn1)
                elt = np.concatenate((elt, u[0::2]))
                # icnvrt: int(nn1 * vecloc), exact as nn1 is a power of two
                loc += (u[1::2] * nn1).astype(np.int64).tolist()
            i = loc[k]
            if i < na and i not in iv:
                iv.append(i)
                pick.append(k)
            k += 1
        if row in iv:
            pick[len(pos) + iv.index(row)] = -1
            short.append(row)
        else:
            iv.append(row)
            pick.append(-1)
        pos += iv
    return np.array(pos, dtype=np.int32), np.append(elt, 0.5)[pick], short


#: a bucket's fixed matvec cost (four numpy calls), in gathered entries
_BUCKET_COST = 2048


class Csr:
    """Compressed sparse rows: just what CG needs of a sparse matrix.

    ``indptr`` / ``indices`` / ``data`` as in any CSR (columns ascending
    within a row), ``shape``, ``nnz``, row slicing ``a[lo:hi]`` (views,
    no copy) and the matvec ``a @ x``.

    The matvec is ``csr_matvec``'s, to the bit: each row's sum starts at
    ``0.0`` and adds ``data * x[col]`` in ascending column order.  It
    runs as padded ELLPACK — rows sorted by length into a few buckets,
    each a ``(depth, rows)`` array of products reduced down axis 0, which
    numpy sums one level at a time (``np.add.reduceat`` would sum each
    row pairwise).  Padding multiplies ``0.0`` by a zero slot appended to
    ``x``, so it adds ``+0.0``: a no-op, as a sum that starts at ``+0.0``
    is never ``-0.0``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: Tuple[int, int]):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self._ell = None  # [(rows, cols, vals)], built by the first matvec
        self._x = None  # x plus the zero slot the padding reads

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __getitem__(self, rows: slice) -> "Csr":
        lo, hi, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("only contiguous row slices are supported")
        hi = max(lo, hi)
        ptr = self.indptr[lo:hi + 1]
        return Csr(ptr - ptr[0], self.indices[ptr[0]:ptr[-1]],
                   self.data[ptr[0]:ptr[-1]], (hi - lo, self.shape[1]))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self._ell is None:
            self._ell = self._buckets()
            self._x = np.zeros(self.shape[1] + 1)
        self._x[:-1] = x
        y = np.empty(self.shape[0])
        for rows, cols, vals in self._ell:
            p = self._x[cols]
            p *= vals
            y[rows] = np.add.reduce(p, axis=0, initial=0.0)[:len(rows)]
        return y

    def _buckets(self):
        """Rows sorted by length, cut into runs wherever a cut saves more
        padded entries than a run's fixed cost in numpy calls."""
        lens = np.diff(self.indptr)
        order = np.argsort(lens, kind="stable")
        srt = lens[order]
        todo, runs = [(0, len(order))], []
        while todo:
            a, b = todo.pop()
            cut = np.arange(a + 2, b - 1)  # both halves keep >= 2 rows
            if cut.size:
                saved = (cut - a) * (srt[b - 1] - srt[cut - 1])
                if saved.max() > _BUCKET_COST:
                    k = int(cut[saved.argmax()])
                    todo += [(a, k), (k, b)]
                    continue
            runs.append((a, b))
        ell = []
        for a, b in runs:
            rows = order[a:b]
            k = lens[rows]
            depth = int(k.max(initial=0))
            # a one-column reduce would run along axis 0 and sum pairwise
            cols = np.full((depth, max(b - a, 2)), self.shape[1], dtype=np.intp)
            vals = np.zeros(cols.shape)
            col = np.repeat(np.arange(b - a), k)
            level = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
            src = np.repeat(self.indptr[rows], k) + level
            cols[level, col] = self.indices[src]
            vals[level, col] = self.data[src]
            ell.append((rows, cols, vals))
        return ell


def make_matrix(klass: str = "S") -> Csr:
    """NPB ``makea``: the class's sparse SPD matrix, exactly.

    The COO triplets arrive in the per-entry loop's order — column
    ``jcol`` outer, row ``irow`` inner, each value ``vi * (size * vj)``
    with ``size`` the running product of ``ratio``, the diagonal last —
    and, as in NPB ``sparse``'s ``a(k) = a(k) + va``, duplicates of one
    (row, col) are summed in that order, starting from ``0.0``.  Each run
    of rows with equally many entries is one broadcast multiply into the
    preallocated triplets.
    """
    na, nonzer, shift, _niter = CLASSES[klass]
    pos, val, short = _sprnvc_vectors(na, nonzer)
    ratio = RCOND ** (1.0 / na)
    sizes = np.full(na, ratio)
    sizes[0] = 1.0
    np.multiply.accumulate(sizes, out=sizes)  # sequential: size *= ratio

    runs = []  # (first row, end row, entries per row); some may be empty
    r = 0
    for s in short:
        runs += [(r, s, nonzer + 1), (s, s + 1, nonzer)]
        r = s + 1
    runs.append((r, na, nonzer + 1))
    nnz = sum((r1 - r0) * w * w for r0, r1, w in runs) + na
    keys = np.empty(nnz, dtype=np.int64)  # row * na + col
    vals = np.empty(nnz)
    pos = pos.astype(np.int64)
    src = dst = 0
    for r0, r1, w in runs:
        c = r1 - r0
        end = dst + c * w * w
        iv = pos[src:src + c * w].reshape(c, 1, w)  # [row, 0, irow]
        v = val[src:src + c * w].reshape(c, 1, w)
        np.add(iv * na, iv.transpose(0, 2, 1), out=keys[dst:end].reshape(c, w, w))
        scale = sizes[r0:r1, None, None] * v.transpose(0, 2, 1)  # [row, jcol, 0]
        np.multiply(v, scale, out=vals[dst:end].reshape(c, w, w))
        src += c * w
        dst = end
    # rcond - shift on the diagonal
    keys[dst:] = np.arange(na) * (na + 1)
    vals[dst:] = RCOND - shift

    # sort by (row, col, arrival): an entry's duplicates end up adjacent,
    # in arrival order (one in-place sort of unique keys beats a stable
    # argsort eightfold)
    keys *= nnz
    keys += np.arange(nnz)
    keys.sort()
    vals = vals[keys % nnz]
    keys //= nnz
    first = np.empty(nnz, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    at = np.cumsum(first)
    at -= 1
    data = np.zeros(keys.size)
    np.add.at(data, at, vals)  # in index order: arrival order
    del at, vals  # freed before the index arrays below: they set the peak
    indptr = np.zeros(na + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // na, minlength=na), out=indptr[1:])
    return Csr(indptr, (keys % na).astype(np.int32), data, (na, na))


@dataclass
class CgResult:
    zeta: float
    rnorm: float
    niter: int
    klass: str

    def verify(self, tol: float = 1e-10) -> bool:
        ref = REFERENCE_ZETA.get(self.klass)
        if ref is None:
            raise KeyError(f"no reference zeta for class {self.klass!r}")
        return abs(self.zeta - ref) <= tol * max(1.0, abs(ref))


def _conj_grad(a: Csr, x: np.ndarray) -> Tuple[np.ndarray, float]:
    """One NPB conj_grad call: 25 CG steps for A z = x; returns (z, rnorm)."""
    n = x.shape[0]
    z = np.zeros(n)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(CG_ITMAX):
        q = a @ p
        d = float(p @ q)
        alpha = rho / d
        z += alpha * p
        r -= alpha * q
        rho0 = rho
        rho = float(r @ r)
        beta = rho / rho0
        p = r + beta * p
    res = x - a @ z
    return z, float(np.sqrt(res @ res))


def cg_reference(
    klass: str = "S", a: Optional[Csr] = None, niter: Optional[int] = None
) -> CgResult:
    """Sequential NPB CG: NITER outer iterations; returns the final zeta.

    *niter* overrides the class's outer iteration count (the verification
    zetas require the class default).
    """
    na, _nonzer, shift, class_niter = CLASSES[klass]
    niter = class_niter if niter is None else niter
    if a is None:
        a = make_matrix(klass)
    x = np.ones(na)
    # one untimed iteration, whose z NPB discards by resetting x to ones
    _conj_grad(a, x)
    zeta = 0.0
    rnorm = 0.0
    for _ in range(niter):
        z, rnorm = _conj_grad(a, x)
        zeta = shift + 1.0 / float(x @ z)
        x = z / float(np.sqrt(z @ z))
    return CgResult(zeta=zeta, rnorm=rnorm, niter=niter, klass=klass)


# ----------------------------------------------------------------------
# workload cost model
# ----------------------------------------------------------------------
#: work units per nonzero of the local matvec (mult + add, memory-bound)
WORK_PER_NNZ = 4.0
#: work units per vector element per axpy-like op
WORK_PER_ELEM = 2.0


def make_program(
    klass: str = "T", a: Optional[Csr] = None, niter: Optional[int] = None
):
    """Master program running NPB CG on the cluster runtime.

    Shared arrays: x, z, p, q, r (each ``na`` doubles).  Matrix rows are
    replicated read-only per node (as an MPI code would hold its block;
    the paper's OpenMP translator keeps A in shared memory, but A is
    written once — after the first touch it stays local, so replication
    preserves the steady-state traffic while avoiding a giant warm-up
    phase in the simulator).
    """
    na, _nonzer, shift, class_niter = CLASSES[klass]
    niter = class_niter if niter is None else niter
    mat = a if a is not None else make_matrix(klass)

    def program(ctx):
        xs = ctx.shared_array("cg_x", (na,))
        zs = ctx.shared_array("cg_z", (na,))
        ps = ctx.shared_array("cg_p", (na,))
        qs = ctx.shared_array("cg_q", (na,))
        rs = ctx.shared_array("cg_r", (na,))

        yield from ctx.array(xs).set(np.ones(na))

        state = {"zeta": 0.0, "rnorm": 0.0}

        def body(tc, xs, zs, ps, qs, rs):
            lo, hi = tc.for_range(0, na)
            rows = mat[lo:hi]
            nnz_local = rows.nnz
            xv, zv, pv, qv, rv = (tc.array(s) for s in (xs, zs, ps, qs, rs))

            def matvec_q():
                # q[rows] = A[rows] @ p : reads the WHOLE p vector
                p_full = yield from pv.get()
                local_q = rows @ p_full
                yield from tc.compute(nnz_local * WORK_PER_NNZ)
                yield from qv.set(local_q, start=lo)
                return local_q

            def conj_grad():
                # z = 0; r = x; p = r; rho = r.r
                x_loc = yield from xv.get(lo, hi)
                x_loc = x_loc.copy()
                yield from zv.set(np.zeros(hi - lo), start=lo)
                yield from rv.set(x_loc, start=lo)
                yield from pv.set(x_loc, start=lo)
                yield from tc.compute((hi - lo) * WORK_PER_ELEM)
                yield from tc.barrier()
                rho = yield from tc.reduce_value(float(x_loc @ x_loc), SUM)
                for _cgit in range(CG_ITMAX):
                    local_q = yield from matvec_q()
                    p_loc = yield from pv.get(lo, hi)
                    d = yield from tc.reduce_value(float(p_loc @ local_q), SUM)
                    alpha = rho / d
                    z_loc = yield from zv.writable(lo, hi)
                    z_loc += alpha * p_loc
                    r_loc = yield from rv.writable(lo, hi)
                    r_loc -= alpha * local_q
                    yield from tc.compute((hi - lo) * 2 * WORK_PER_ELEM)
                    rho0 = rho
                    rho = yield from tc.reduce_value(float(r_loc @ r_loc), SUM)
                    beta = rho / rho0
                    new_p = r_loc + beta * (yield from pv.get(lo, hi))
                    yield from pv.set(new_p, start=lo)
                    yield from tc.compute((hi - lo) * 2 * WORK_PER_ELEM)
                    yield from tc.barrier()  # p must be visible for the next matvec
                # residual norm ||x - A z||
                z_full = yield from zv.get()
                local_res = x_loc - rows @ z_full
                yield from tc.compute(nnz_local * WORK_PER_NNZ)
                s = yield from tc.reduce_value(float(local_res @ local_res), SUM)
                return float(np.sqrt(s))

            # untimed warm-up iteration (NPB shape), then reset x
            yield from conj_grad()
            yield from xv.set(np.ones(hi - lo), start=lo)
            yield from tc.barrier()

            zeta = 0.0
            rnorm = 0.0
            for _it in range(niter):
                rnorm = yield from conj_grad()
                x_loc = yield from xv.get(lo, hi)
                z_loc = yield from zv.get(lo, hi)
                norm1 = yield from tc.reduce_value(float(x_loc @ z_loc), SUM)
                norm2 = yield from tc.reduce_value(float(z_loc @ z_loc), SUM)
                zeta = shift + 1.0 / norm1
                yield from xv.set(np.asarray(z_loc) / np.sqrt(norm2), start=lo)
                yield from tc.compute((hi - lo) * 2 * WORK_PER_ELEM)
                yield from tc.barrier()
            if tc.tid == 0:
                state["zeta"] = zeta
                state["rnorm"] = rnorm

        yield from ctx.parallel(body, xs, zs, ps, qs, rs)
        return CgResult(
            zeta=state["zeta"], rnorm=state["rnorm"], niter=niter, klass=klass
        )

    return program
