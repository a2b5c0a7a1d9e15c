"""Run specifications: the serializable unit of work the fleet executes.

A :class:`RunSpec` is everything one simulation run depends on, written
down as plain JSON-serializable data: the workload factory (a dotted
``module:function`` reference plus keyword arguments — never a closure,
so a spec survives ``multiprocessing`` spawn pickling and hashing), the
cluster/runtime configuration, the protocol flags, the fault plan and
chaos seed, and which observers to attach.  Two properties follow:

* **spawn safety** — a worker process reconstructs the run from the spec
  alone, importing :mod:`repro` fresh; nothing leaks in from the parent
  except the spec, so a worker run is bit-identical to an in-process run
  (`tests/test_fleet.py` pins it);
* **content addressing** — :meth:`RunSpec.canonical` is a deterministic
  serialization, which, hashed together with the source-tree digest,
  becomes the run-cache key (:mod:`repro.fleet.cache`).

:func:`execute` is the single simulation driver both sides share: the
in-process ``jobs=1`` path and the worker processes call the same
function, so there is exactly one definition of what a run measures.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.sim.probe import PH_BARRIER, PH_LOCK_WAIT

#: bump when the record layout changes incompatibly — part of the cache
#: key, so stale cache entries become misses instead of wrong shapes
RECORD_VERSION = 1


def _option(default, flag: str, help: str, **argparse_kw):
    """A field the command line sets: ``python -m repro`` derives option
    *flag* from it.  Metadata only — :func:`dataclasses.asdict` ignores
    it, so :meth:`RunSpec.canonical` and every cache key stay as they are."""
    return field(default=default, metadata={"flag": flag, "help": help, **argparse_kw})


@dataclass(frozen=True)
class RunSpec:
    """One deterministic simulation run, as data.

    ``factory`` names the program factory as ``(module, function)``;
    ``factory_kwargs`` are its keyword arguments (JSON scalars only).
    The observer flags (``profile`` / ``trace`` / ``metrics``) never
    change virtual-time results — the executor asserts as much by
    comparing the observed run against the timed runs (see
    :func:`execute`).
    """

    workload: str
    factory: Tuple[str, str]
    factory_kwargs: Dict[str, object] = field(default_factory=dict)
    n_nodes: int = _option(4, "--nodes", "cluster size (default 4)")
    pool_bytes: int = 1 << 22
    mode: str = _option(
        "parade", "--mode",
        "hybrid ParADE translation or conventional SDSM (default parade)",
        choices=("parade", "sdsm"), metavar="{parade,sdsm}",
    )
    exec_name: str = _option(
        "2Thread-2CPU", "--exec",
        "execution configuration: 1Thread-1CPU, 1Thread-2CPU or 2Thread-2CPU (default)",
    )
    #: protocol accelerator / hierarchical sync / happens-before sanitizer
    accel: bool = _option(
        False, "--accel",
        "protocol accelerator on (batched notices, adaptive migration + update push)",
    )
    hier: bool = _option(False, "--hier", "hierarchical synchronization on (tree barrier)")
    sanitize: bool = _option(False, "--sanitize", "attach the happens-before sanitizer")
    #: fault injection: stock plan name (``repro.chaos.plan.PLANS``) + seed
    fault_plan: Optional[str] = _option(
        None, "--plan",
        "comma list of stock fault plans, or 'sweep' for the stock sweep matrix (see --list)",
    )
    chaos_seed: int = _option(
        0, "--seed", "chaos seed; one (plan, seed) pair reproduces every fault (default 0)"
    )
    #: observers: virtual-time phase breakdown, trace digest, live metrics
    profile: bool = False
    trace: bool = False
    metrics: bool = False
    metrics_period: float = _option(
        1e-4, "--period", "metrics sampling period in virtual seconds (default 1e-4)"
    )
    #: attach observers to the timed run instead of one extra untimed
    #: run — used where the observed run *is* the measurement (the perf
    #: record's scale sweep points)
    observe_timed: bool = False

    def canonical(self) -> str:
        """Deterministic serialization — the cache-key material."""
        return json.dumps(asdict(self), sort_keys=True)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical form (without the source digest —
        see :meth:`repro.fleet.cache.RunCache.key` for the full key)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: Dict) -> "RunSpec":
        d = dict(d)
        d["factory"] = tuple(d["factory"])
        return cls(**d)

    @classmethod
    def from_entry(cls, name: str, entry: Dict, **kw) -> "RunSpec":
        """Build a spec from a workload-registry entry (the dicts of
        :func:`repro.bench.figures.registered_programs` and the perf
        baskets), which carry ``factory_ref`` / ``factory_kwargs`` /
        ``pool_bytes``."""
        kw.setdefault("pool_bytes", entry["pool_bytes"])
        return cls(
            workload=name,
            factory=tuple(entry["factory_ref"]),
            factory_kwargs=dict(entry["factory_kwargs"]),
            **kw,
        )


def resolve_factory(ref: Tuple[str, str], kwargs: Dict) -> Callable:
    """Import ``module:function`` and bind *kwargs*; returns a zero-arg
    program factory."""
    module = importlib.import_module(ref[0])
    fn = getattr(module, ref[1])
    return lambda: fn(**kwargs)


def build_runtime(spec: RunSpec, observe: bool = False):
    """Construct the :class:`~repro.runtime.ParadeRuntime` a spec
    describes (metrics attached only when *observe* asks for them)."""
    from repro.runtime import ALL_EXEC_CONFIGS, ParadeRuntime

    ec = next((e for e in ALL_EXEC_CONFIGS if e.name == spec.exec_name), None)
    if ec is None:
        names = ", ".join(e.name for e in ALL_EXEC_CONFIGS)
        raise ValueError(f"unknown exec config {spec.exec_name!r}; use one of: {names}")
    plan = None
    if spec.fault_plan is not None:
        from repro.chaos.plan import plan_by_name

        plan = plan_by_name(spec.fault_plan)
    return ParadeRuntime(
        n_nodes=spec.n_nodes,
        exec_config=ec,
        mode=spec.mode,
        pool_bytes=spec.pool_bytes,
        protocol_accel=spec.accel,
        hierarchical=spec.hier,
        sanitize=spec.sanitize,
        fault_plan=plan,
        chaos_seed=spec.chaos_seed,
        metrics=bool(observe and spec.metrics),
        metrics_period=spec.metrics_period,
    )


def value_digest(value) -> str:
    """SHA-256 over the canonical JSON form of a program result (the
    same canonicalisation the chaos gate and the scale sweep use, so
    digests are comparable across drivers)."""
    canon = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode()).hexdigest()


#: record keys that legitimately differ between two executions of the
#: same spec (host noise / cache bookkeeping); everything else is a
#: deterministic run invariant
NONDETERMINISTIC_KEYS = ("wall_s", "cached")


def deterministic_view(record: Dict) -> Dict:
    """A record with the host-noise keys stripped — two executions of
    the same spec (in-process, worker, parallel, cached) must agree on
    this view byte-for-byte."""
    return {k: v for k, v in record.items() if k not in NONDETERMINISTIC_KEYS}


def _trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev.as_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _single_run(spec: RunSpec, observe: bool) -> Dict:
    """One simulation run; returns the full record (observer sections
    included only when *observe*)."""
    rt = build_runtime(spec, observe=observe)
    rec = prof = None
    if observe and spec.trace:
        from repro.trace import TraceRecorder

        rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
    if observe and spec.profile:
        from repro.profile import Profiler

        prof = Profiler(rt.sim, record_intervals=False)
    factory = resolve_factory(spec.factory, spec.factory_kwargs)
    t0 = time.perf_counter()
    res = rt.run(factory())
    wall = time.perf_counter() - t0

    out: Dict[str, object] = {
        "ok": True,
        "workload": spec.workload,
        "record_version": RECORD_VERSION,
        "wall_s": wall,
        "virtual_s": res.elapsed,
        "region_time": res.region_time,
        "events": int(res.cluster_stats.get("events_processed", 0)),
        "msgs_sent": int(res.cluster_stats.get("total_messages", 0)),
        "bytes_sent": int(res.cluster_stats.get("total_bytes", 0)),
        "faults": int(
            res.dsm_stats.get("read_faults", 0) + res.dsm_stats.get("write_faults", 0)
        ),
        "cluster_stats": res.cluster_stats,
        "dsm_stats": res.dsm_stats,
        "mpi_stats": res.mpi_stats,
        "chaos_stats": res.chaos_stats,
        "epochs": rt.dsm.nodes[0]._barrier_epoch,
        "master_stats": rt.dsm.nodes[0].stats.as_dict(),
        "value_digest": value_digest(res.value),
    }
    if spec.sanitize:
        san = rt.sanitizer
        out["sanitizer"] = {
            "ok": san.ok,
            "n_findings": len(san.findings),
            "summary": san.summary(),
            "findings": [
                f"[{f.kind} @t={f.time:.6g}] {f.message}" for f in san.findings[:50]
            ],
        }
    if prof is not None:
        prof.finalize()
        totals = prof.totals()
        out["phases"] = prof.group_fractions(ndigits=4)
        out["thread_s"] = sum(totals.values())
        out["barrier_s"] = totals.get(PH_BARRIER, 0.0)
        out["lock_s"] = totals.get(PH_LOCK_WAIT, 0.0)
    if rec is not None:
        out["trace"] = {
            "n_events": rec.n_emitted,
            "digest": _trace_digest(rec.events),
        }
    if rt.metrics is not None:
        out["metrics"] = {
            "n_samples": rt.metrics.n_samples,
            "dump": rt.metrics.dump(),
        }
    return out


#: deterministic run invariants an observed run must share with the timed run
_OBSERVED_INVARIANTS = (
    "virtual_s", "events", "msgs_sent", "bytes_sent", "value_digest",
    "cluster_stats", "dsm_stats", "mpi_stats",
)


def execute(spec: RunSpec) -> Dict:
    """Run one spec to completion; the function both the in-process path
    and the spawn workers share.

    One timed run; when observers are requested and ``observe_timed`` is
    off, one extra *untimed* observed run collects phases / trace digest
    / metrics, and its virtual results and whole cluster / DSM / MPI
    statistics are asserted identical to the timed run's — the
    zero-perturbation contract of the observability stack, re-checked on
    every fleet run.
    """
    observe = spec.profile or spec.trace or spec.metrics
    rec = _single_run(spec, observe=observe and spec.observe_timed)
    if observe and not spec.observe_timed:
        obs = _single_run(spec, observe=True)
        for key in _OBSERVED_INVARIANTS:
            timed, observed = rec[key], obs[key]
            if observed == timed:
                continue
            if isinstance(timed, dict):  # name the stats that moved
                moved = timed.keys() | observed.keys()
                what = sorted(k for k in moved if timed.get(k) != observed.get(k))
            else:
                what = f"{timed!r} timed vs {observed!r} observed"
            raise AssertionError(
                f"{spec.workload}: observers perturbed the run — {key} {what}"
            )
        for key in ("phases", "thread_s", "barrier_s", "lock_s", "trace", "metrics"):
            if key in obs:
                rec[key] = obs[key]
    return rec


def execute_safely(spec: RunSpec) -> Dict:
    """:func:`execute` with per-spec failure isolation: an exception
    becomes an ``ok: False`` record instead of sinking the whole fleet."""
    try:
        return execute(spec)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        import traceback

        return {
            "ok": False,
            "workload": spec.workload,
            "record_version": RECORD_VERSION,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=20),
        }


def make_entry(ref: Tuple[str, str], kwargs: Dict, pool_bytes: int, note: str,
               **extra) -> Dict:
    """A workload-registry entry carrying both the serializable factory
    reference (for the fleet) and the bound ``factory`` callable (for
    in-process drivers).  Shared by the perf baskets and the figure
    registry so every registered workload is fleet-dispatchable."""
    mod, fn = ref
    entry = {
        "factory_ref": (mod, fn),
        "factory_kwargs": dict(kwargs),
        "factory": lambda m=mod, f=fn, kw=kwargs: resolve_factory((m, f), kw)(),
        "pool_bytes": pool_bytes,
        "note": note,
    }
    entry.update(extra)
    return entry
