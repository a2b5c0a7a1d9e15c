"""CLI for the fleet executor.

``python -m repro.fleet --selfcheck``
    The fleet-smoke gate (see ``make fleet-smoke``): asserts the three
    core contracts on tiny workloads — (1) a spawned worker run is
    bit-identical to an in-process run, (2) a warm cache serves every
    spec with zero re-simulations, (3) a poisoned source digest misses.

What a fleet run costs the host (per-spec overhead, a cache hit) is
measured from outside by ``benchmarks/hostbench`` (``harness.*`` rows).
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from .cache import RunCache
from .executor import resolve_jobs, run_many
from .spec import RunSpec, deterministic_view, merged_histograms

#: tiny but non-trivial basket exercising observers + both protocol modes
_CHECK_SPECS = [
    RunSpec(
        workload="helmholtz",
        factory=("repro.apps.helmholtz", "make_program"),
        factory_kwargs={"n": 16, "m": 16, "max_iters": 2},
        n_nodes=2,
        pool_bytes=1 << 20,
        profile=True,
        trace=True,
        metrics=True,
    ),
    RunSpec(
        workload="cg",
        factory=("repro.apps.cg", "make_program"),
        factory_kwargs={"klass": "T", "niter": 1},
        n_nodes=2,
        pool_bytes=1 << 22,
        accel=True,
        metrics=True,
    ),
]


def _selfcheck(jobs: int) -> int:
    from .spec import execute

    print(f"fleet selfcheck: {len(_CHECK_SPECS)} specs, jobs={jobs}")

    # 1. worker-vs-in-process bit identity
    seq = run_many(_CHECK_SPECS, jobs=1)
    par = run_many(_CHECK_SPECS, jobs=max(2, jobs))
    for a, b in zip(seq.records, par.records):
        va, vb = deterministic_view(a), deterministic_view(b)
        if va != vb:
            print(f"FAIL: {a['workload']}: worker record differs from in-process",
                  file=sys.stderr)
            return 1
    if merged_histograms(seq.records) != merged_histograms(par.records):
        print("FAIL: merged histograms differ across jobs", file=sys.stderr)
        return 1
    direct = deterministic_view(execute(_CHECK_SPECS[0]))
    if direct != deterministic_view(seq.records[0]):
        print("FAIL: run_many record differs from direct execute()",
              file=sys.stderr)
        return 1
    print("  worker == in-process: ok (records + merged histograms bit-identical)")

    # 2. warm cache serves everything, zero re-simulations
    with tempfile.TemporaryDirectory(prefix="parade-cache-") as tmp:
        cache = RunCache(root=tmp)
        cold = run_many(_CHECK_SPECS, jobs=1, cache=cache)
        warm = run_many(_CHECK_SPECS, jobs=1, cache=cache)
        if warm.n_executed != 0 or warm.n_hits != len(_CHECK_SPECS):
            print(f"FAIL: warm cache re-simulated ({warm.summary()})",
                  file=sys.stderr)
            return 1
        for a, b in zip(cold.records, warm.records):
            if deterministic_view(a) != deterministic_view(b):
                print(f"FAIL: {a['workload']}: cached record differs",
                      file=sys.stderr)
                return 1
        print(f"  warm cache: ok ({warm.summary()})")

        # 3. poisoned source digest must miss
        poisoned = RunCache(root=tmp, source="0" * 64)
        stale = run_many(_CHECK_SPECS, jobs=1, cache=poisoned)
        if stale.n_hits != 0:
            print("FAIL: poisoned source digest produced cache hits",
                  file=sys.stderr)
            return 1
        print("  poisoned digest: ok (all misses)")

    print("fleet selfcheck: all contracts hold")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="multiprocess sweep executor + content-addressed run cache",
    )
    ap.add_argument("--selfcheck", action="store_true",
                    help="assert worker-identity / warm-cache / poisoned-digest "
                         "contracts on tiny workloads")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: PARADE_JOBS or cpu count)")
    args = ap.parse_args(argv)

    jobs = resolve_jobs(args.jobs)
    if args.selfcheck:
        return _selfcheck(jobs)
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
