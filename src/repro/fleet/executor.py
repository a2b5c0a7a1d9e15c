"""The multiprocess sweep executor.

:func:`run_many` takes a list of :class:`~repro.fleet.spec.RunSpec` and
returns one record per spec **in spec order**, regardless of how many
worker processes ran them or in what order they finished.  Records for
identical inputs are bit-identical whatever the ``jobs`` value, because:

* workers are *spawned* (never forked): each one imports :mod:`repro`
  fresh and reconstructs the run from the pickled spec alone, exactly
  like a new interpreter would — there is no parent state to inherit
  and therefore none to diverge on;
* both sides run the same driver, :func:`repro.fleet.spec.execute`;
* the merge is a plain reorder-by-index, and histogram merging
  (:func:`repro.fleet.spec.merged_histograms`) is exact integer bucket
  addition applied in spec order.

The only per-record fields allowed to differ between runs are the
wall-clock and cache-bookkeeping keys
(:data:`repro.fleet.spec.NONDETERMINISTIC_KEYS`); strip them with
:func:`repro.fleet.spec.deterministic_view` before comparing.

Failure isolation: a spec that raises becomes an ``ok: False`` record
carrying the error and traceback; the other specs complete normally.
A worker process that dies (killed, out of memory) or a fleet in which
no spec finishes for :data:`SPEC_CEILING_S` also ends in ``ok: False``
records for everything unfinished, never in a hang: gates fail loudly
and a re-run replays what did finish from the cache.

Job-count resolution: explicit ``jobs=`` argument, else ``PARADE_JOBS``,
else ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from .cache import RunCache
from .spec import RECORD_VERSION, RunSpec, execute_safely

__all__ = ["resolve_jobs", "run_many", "FleetReport"]

#: wall-clock ceiling on one spec in a worker, in seconds.  The slowest
#: recorded spec (64-node CG) takes ~6 s; two orders of magnitude of
#: head-room keep a loaded CI host from tripping it, and a spec that is
#: still running after it is hung, not slow.
SPEC_CEILING_S = 600.0


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit > ``PARADE_JOBS`` env > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("PARADE_JOBS")
        if env:
            jobs = int(env)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _worker_main(spec_dict: Dict) -> Dict:
    """Top-level (spawn-picklable) worker: rebuild the spec, run it."""
    return execute_safely(RunSpec.from_dict(spec_dict))


def _run_in_workers(pending: List[Tuple[int, RunSpec]], n_workers: int) -> Dict[int, Dict]:
    """Fan *pending* across spawned workers; ``{index: record}`` for all
    of them, in bounded time whatever the workers do."""
    ctx = multiprocessing.get_context("spawn")
    out: Dict[int, Dict] = {}
    with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
        submitted = {
            pool.submit(_worker_main, asdict(spec)): (i, spec)
            for i, spec in pending
        }
        waiting = set(submitted)
        while waiting:
            done, waiting = wait(
                waiting, timeout=SPEC_CEILING_S, return_when=FIRST_COMPLETED
            )
            if not done:
                # a worker picks up its next spec when one finishes, so
                # every running spec has now run for the whole ceiling.
                # There is no public way to stop a running worker; killing
                # them breaks the pool, which fails every waiting future.
                for proc in list(pool._processes.values()):
                    proc.kill()
                continue
            for future in done:
                i, spec = submitted[future]
                try:
                    out[i] = future.result()
                except BrokenProcessPool:
                    out[i] = {
                        "ok": False,
                        "workload": spec.workload,
                        "record_version": RECORD_VERSION,
                        "error": "worker process died, or no spec of the fleet "
                        f"finished within {SPEC_CEILING_S:g} s; this spec was "
                        "running or still queued",
                    }
    return out


@dataclass
class FleetReport:
    """What a fleet run produced: records in spec order plus the
    bookkeeping every gate prints."""

    records: List[Dict]
    jobs: int
    wall_s: float
    n_hits: int = 0
    n_executed: int = 0
    n_failed: int = 0
    cache_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def failures(self) -> List[Dict]:
        return [r for r in self.records if not r.get("ok")]

    def summary(self) -> str:
        """One line for gate logs — always includes the cache counters
        so cache poisoning is visible in CI output."""
        cc = self.cache_counters or {"hits": 0, "misses": 0, "stores": 0}
        return (
            f"fleet: {len(self.records)} specs, jobs={self.jobs}, "
            f"executed={self.n_executed}, failed={self.n_failed}, "
            f"cache hits={cc['hits']} misses={cc['misses']} "
            f"stores={cc['stores']}, wall={self.wall_s * 1e3:.1f} ms"
        )


def run_many(specs: List[RunSpec], jobs: Optional[int] = None,
             cache: Optional[RunCache] = None) -> FleetReport:
    """Execute *specs*, fanning cache misses across ``jobs`` spawned
    workers; returns a :class:`FleetReport` with records in spec order.

    With ``cache`` set, each spec is looked up first and only the misses
    are simulated (hits carry ``cached: True``); successful fresh
    records are stored back.  With ``jobs=1`` — or when at most one spec
    actually needs simulating — everything runs in-process, which is
    bit-identical to the worker path by construction (the fleet
    self-check re-asserts it, see ``python -m repro.fleet --selfcheck``).
    """
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    records: Dict[int, Dict] = {}
    pending: List[Tuple[int, RunSpec]] = []
    n_hits = 0

    for i, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            records[i] = hit
            n_hits += 1
        else:
            pending.append((i, spec))

    if len(pending) <= 1 or jobs == 1:
        for i, spec in pending:
            records[i] = execute_safely(spec)
    else:
        records.update(_run_in_workers(pending, min(jobs, len(pending))))

    if cache is not None:
        for i, spec in pending:
            if records[i].get("ok"):
                cache.put(spec, records[i])

    done: List[Dict] = [records[i] for i in range(len(specs))]
    return FleetReport(
        records=done,
        jobs=jobs,
        wall_s=time.perf_counter() - t0,
        n_hits=n_hits,
        n_executed=len(pending),
        n_failed=sum(1 for r in done if not r.get("ok")),
        cache_counters=cache.counters() if cache is not None else {},
    )
