"""repro.fleet — multiprocess sweep executor + content-addressed run cache.

Every evaluation gate in this repo is a basket of independent
deterministic runs; the fleet fans them across worker processes
(:func:`run_many`) and memoises them on disk (:class:`RunCache`) keyed
by (run spec, source-tree digest), so sweeps use every core and
unchanged gates cost ~0 s on re-run — while every virtual-time number
stays bit-identical to a sequential in-process run.

See docs/FLEET.md for the executor model, the cache-key anatomy, and
the ``--jobs`` / ``PARADE_JOBS`` / ``PARADE_CACHE`` knobs.
"""

from .cache import RunCache, cache_enabled, default_cache, source_digest
from .executor import FleetReport, resolve_jobs, run_many
from .spec import (
    RunSpec,
    build_runtime,
    deterministic_view,
    execute,
    execute_safely,
    make_entry,
    resolve_factory,
    value_digest,
)

__all__ = [
    "FleetReport",
    "RunCache",
    "RunSpec",
    "build_runtime",
    "cache_enabled",
    "default_cache",
    "deterministic_view",
    "execute",
    "execute_safely",
    "make_entry",
    "resolve_factory",
    "resolve_jobs",
    "run_many",
    "source_digest",
    "value_digest",
]
