"""The seven hostbench workloads: what runs, why, and how its result is checked.

Each builder returns ``(runtime, program, check)``: a fresh
``ParadeRuntime``, the master program to hand to ``runtime.run`` (the
timed call) and ``check(result) -> (ok, digest)`` where *ok* says the
program's value matches its reference and *digest* fingerprints the
value bit-for-bit (the determinism check compares digests across
repeats).  Builders import :mod:`repro` lazily so the driver can list
names and reasons without the package on ``sys.path``.

Sizes are iteration counts chosen so one timed run is ~1.5 s on the
2-core seed host; the workload *shapes* (app, node count, mode, flags)
are the ones the README argues for.  ``quick=True`` shrinks them to a
smoke test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

POOL_BYTES = 1 << 23


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(seed, quick, observe, expected) -> (runtime, program, check)``
    build: Callable
    #: observers attached to the timed run (only ``cg_4n_observed``)
    observed: bool = False
    #: whether ``--seed`` changes this workload's inputs
    uses_seed: bool = False
    #: ``expected(seed, quick)``: reference values too costly to recompute
    #: in every child, computed once by the driver and passed to ``build``
    expected: Optional[Callable] = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _cg(n_nodes: int, niter: int, quick_niter: int, *,
        accel: bool = False, hier: bool = False, observable: bool = False):
    """NAS CG builder: class S (class T when quick), *niter* outer
    iterations, verified against the sequential ``cg_reference`` on the
    same matrix (which tier-1 pins to the published NPB zeta)."""

    def build(seed: int, quick: bool, observe: bool, expected: Optional[Dict]):
        from repro.apps import cg
        from repro.runtime import ParadeRuntime

        klass = "T" if quick else "S"
        n = quick_niter if quick else niter
        attach = observable and observe
        rt = ParadeRuntime(
            n_nodes=n_nodes, mode="parade", pool_bytes=POOL_BYTES,
            protocol_accel=accel, hierarchical=hier,
            sanitize=attach, profile=attach, metrics=attach,
        )
        if attach:
            from repro.trace import TraceRecorder

            TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
        mat = cg.make_matrix(klass)
        program = cg.make_program(klass, a=mat, niter=n)

        def check(res):
            ref = cg.cg_reference(klass, a=mat, niter=n)
            v = res.value
            ok = abs(v.zeta - ref.zeta) <= 1e-10 * max(1.0, abs(ref.zeta))
            if attach:
                ok = ok and rt.sanitizer.ok
            return ok, _digest(float(v.zeta).hex(), float(v.rnorm).hex())

        return rt, program, check

    return build


def _helmholtz(seed: int, quick: bool, observe: bool, expected: Optional[Dict]):
    import numpy as np

    from repro.apps import helmholtz
    from repro.runtime import ParadeRuntime

    n, sweeps = (128, 8) if quick else (512, 40)
    rt = ParadeRuntime(n_nodes=8, pool_bytes=POOL_BYTES)
    # tol=0 pins the sweep count: the run is `sweeps` iterations, not
    # "until converged"
    program = helmholtz.make_program(n, n, tol=0.0, max_iters=sweeps)

    def check(res):
        ref = helmholtz.helmholtz_reference(n, n, tol=0.0, max_iters=sweeps)
        v = res.value
        ok = (
            v.iterations == ref.iterations
            and np.allclose(v.u, ref.u, rtol=1e-12, atol=1e-14)
            and abs(v.error - ref.error) <= 1e-12 * max(1.0, abs(ref.error))
        )
        return ok, _digest(np.ascontiguousarray(v.u).tobytes(), float(v.error).hex())

    return rt, program, check


def ep_class(quick: bool) -> str:
    return "T" if quick else "S"


def ep_seed(seed: int) -> int:
    """The NAS LCG seed for benchmark seed *seed*: 0 is NPB's own
    (published sums apply); anything else a distinct odd 46-bit value."""
    from repro.apps.nas_random import DEFAULT_SEED

    if seed == 0:
        return DEFAULT_SEED
    return ((DEFAULT_SEED + 2 * 7919 * seed) % (1 << 46)) | 1


def ep_expected(seed: int, quick: bool) -> Optional[Dict]:
    """Reference sums for EP under *seed*, computed once by the driver
    (it costs as much as the run itself, so not once per repeat).
    ``None`` when the published NPB sums apply."""
    from repro.apps import ep

    klass = ep_class(quick)
    if seed == 0 and klass in ep.REFERENCE:
        return None
    ref = ep.ep_reference(klass, seed=ep_seed(seed))
    return {"sx": ref.sx, "sy": ref.sy, "counts": ref.counts.tolist()}


def _ep(seed: int, quick: bool, observe: bool, expected: Optional[Dict]):
    import numpy as np

    from repro.apps import ep
    from repro.runtime import ParadeRuntime

    klass = ep_class(quick)
    rt = ParadeRuntime(n_nodes=4, pool_bytes=POOL_BYTES)
    program = ep.make_program(klass, seed=ep_seed(seed))

    def check(res):
        v = res.value
        if expected is None:
            ok = v.verify(klass)
        else:
            ok = (
                abs(v.sx - expected["sx"]) <= 1e-8 * abs(expected["sx"])
                and abs(v.sy - expected["sy"]) <= 1e-8 * abs(expected["sy"])
                and np.array_equal(v.counts, np.asarray(expected["counts"]))
            )
        return ok, _digest(float(v.sx).hex(), float(v.sy).hex(), v.counts.tobytes())

    return rt, program, check


def _sync(mode: str, iters: int, quick_iters: int):
    """The Fig 6/7 directive loops in one program: ``critical`` on a
    small scalar, then ``single`` initialising one.  Checked: the counter
    total is iters x threads and every ``single`` body ran exactly once;
    under the ParADE translation also every broadcast value (the
    conventional translation's post-barrier read legitimately races with
    the next instance's writer, so its value is not part of the check).
    """

    def build(seed: int, quick: bool, observe: bool, expected: Optional[Dict]):
        from repro.mpi.ops import SUM
        from repro.runtime import ParadeRuntime

        n = quick_iters if quick else iters
        rt = ParadeRuntime(n_nodes=8, mode=mode, pool_bytes=1 << 20)
        state = {"singles_run": 0, "bad_values": 0}

        def program(ctx):
            x = ctx.shared_scalar("hb_x")
            v = ctx.shared_scalar("hb_v")

            def critical_loop(tc, x):
                for _ in range(n):
                    yield from tc.critical_update(x, 1.0, SUM)

            def single_loop(tc, v):
                for i in range(n):
                    def init(i=i):
                        state["singles_run"] += 1
                        return float(i)
                        yield  # makes init a generator, as `single` requires

                    got = yield from tc.single(body_gen_fn=init, shared_scalar=v)
                    if got != float(i):
                        state["bad_values"] += 1

            yield from ctx.parallel(critical_loop, x)
            total = yield from ctx.scalar(x).get()
            yield from ctx.parallel(single_loop, v)
            return float(total)

        def check(res):
            ok = res.value == float(n * rt.n_threads) and state["singles_run"] == n
            if mode == "parade":
                ok = ok and state["bad_values"] == 0
            return ok, _digest(float(res.value).hex(), sorted(state.items()))

        return rt, program, check

    return build


WORKLOADS = (
    Workload(
        "cg_4n",
        "paper-faithful CG class S on 4 nodes, every opt-in flag off: the DSM "
        "fault/diff/flush path does the most work here",
        _cg(4, niter=7, quick_niter=1),
    ),
    Workload(
        "helmholtz_8n",
        "512x512 Jacobi on 8 nodes: big pages of changing floats, so vm page "
        "copies and twin/diff kernels dominate and messages are few",
        _helmholtz,
    ),
    Workload(
        "ep_4n",
        "NAS EP: ~all host time is app numpy, so every simulator or protocol "
        "optimisation must predict no change here",
        _ep,
        uses_seed=True,
        expected=ep_expected,
    ),
    Workload(
        "sync_8n",
        "the Fig 6/7 critical and single loops on 8 nodes: no page data, so "
        "mpi collectives and runtime team code carry the run",
        _sync("parade", iters=1250, quick_iters=60),
    ),
    Workload(
        "sync_8n_sdsm",
        "the same loops through mode=sdsm (KDSM baseline): distributed locks, "
        "busy-wait and page ping-pong make it sim-kernel-bound, the other use of dsm",
        _sync("sdsm", iters=40, quick_iters=4),
    ),
    Workload(
        "cg_16n_hier_accel",
        "CG at 16 nodes with hier+accel on: the scale-out point where tree "
        "barrier, sharded locks, batching and migration code all run",
        _cg(16, niter=2, quick_niter=0, accel=True, hier=True),
    ),
    Workload(
        "cg_4n_observed",
        "CG with trace, profiler, metrics and sanitizer attached to the timed "
        "run: every observer hook guard is live instead of idle",
        _cg(4, niter=1, quick_niter=0, observable=True),
        observed=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
