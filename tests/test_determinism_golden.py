"""Golden determinism tests: the hot-path engine is invisible to the protocol.

The committed goldens under ``tests/goldens/`` were recorded *before* the
fast-path / vectorisation work landed.  These tests re-run the same
workloads and assert that virtual times, per-node protocol statistics, and
the trace stream of a sanitizer-checked run are **identical** — any
divergence means an optimisation changed observable behaviour, not just
wall-clock speed.

Regenerate goldens (only when an *intentional* protocol change lands)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_determinism_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

from repro.apps import helmholtz
from repro.runtime import ParadeRuntime
from repro.trace import TraceRecorder

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
GOLDEN = GOLDEN_DIR / "determinism_helmholtz_4node.json"

#: fixed workload: helmholtz 48x48, 3 iterations, 4 nodes
N_NODES = 4
POOL_BYTES = 1 << 21


def _run(traced: bool, sanitize: bool = False):
    rt = ParadeRuntime(n_nodes=N_NODES, pool_bytes=POOL_BYTES, sanitize=sanitize)
    rec = None
    if traced:
        rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
    res = rt.run(helmholtz.make_program(n=48, m=48, max_iters=3))
    return rt, res, rec


def _trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev.as_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _per_node_stats(rt: ParadeRuntime):
    return [dn.stats.as_dict() for dn in rt.dsm.nodes]


def _snapshot() -> dict:
    rt, res, rec = _run(traced=True, sanitize=True)
    assert rt.sanitizer.ok, rt.sanitizer.format_report()
    return {
        "elapsed": res.elapsed,
        "region_time": res.region_time,
        "events_processed": int(res.cluster_stats["events_processed"]),
        "total_messages": int(res.cluster_stats["total_messages"]),
        "total_bytes": int(res.cluster_stats["total_bytes"]),
        "dsm_stats": res.dsm_stats,
        "per_node_stats": _per_node_stats(rt),
        "mpi_stats": res.mpi_stats,
        "barrier_epochs": [dn._barrier_epoch for dn in rt.dsm.nodes],
        "n_trace_events": rec.n_emitted,
        "trace_digest": _trace_digest(rec.events),
        "value_digest": hashlib.sha256(
            json.dumps(res.value, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


def _load_or_regen() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDENS") or not GOLDEN.exists():
        snap = _snapshot()
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def test_virtual_time_and_stats_match_golden():
    """Stats-invariance regression: faults, fetches, diffs, lock hops and
    barrier epochs must be byte-identical to the committed golden."""
    golden = _load_or_regen()
    rt, res, _ = _run(traced=False)
    assert res.elapsed == golden["elapsed"]
    assert res.region_time == golden["region_time"]
    assert int(res.cluster_stats["total_messages"]) == golden["total_messages"]
    assert int(res.cluster_stats["total_bytes"]) == golden["total_bytes"]
    assert res.dsm_stats == golden["dsm_stats"]
    assert _per_node_stats(rt) == golden["per_node_stats"]
    assert res.mpi_stats == golden["mpi_stats"]
    assert [dn._barrier_epoch for dn in rt.dsm.nodes] == golden["barrier_epochs"]


def test_event_count_matches_golden():
    golden = _load_or_regen()
    _, res, _ = _run(traced=False)
    assert int(res.cluster_stats["events_processed"]) == golden["events_processed"]


def test_trace_stream_matches_golden_and_passes_the_sanitizer():
    """The full trace stream (every event, in order, with args) is part of
    the behavioural contract: the fast path may not add, drop, or reorder
    protocol events.  The run is the sanitizer's too, so the golden
    stream is also the one of a run whose protocol checked out live."""
    golden = _load_or_regen()
    rt, _, rec = _run(traced=True, sanitize=True)
    assert rt.sanitizer.ok, rt.sanitizer.format_report()
    assert rec.n_emitted == golden["n_trace_events"]
    assert _trace_digest(rec.events) == golden["trace_digest"]


def test_fast_path_on_off_equivalence(slow_access):
    """The fast-path cache is a wall-clock optimisation only: with every
    access forced down the slow path the run must produce the same
    virtual time, stats, and trace stream, event for event."""
    _, res_on, rec_on = _run(traced=True)
    slow_access()
    _, res_off, rec_off = _run(traced=True)
    assert res_on.elapsed == res_off.elapsed
    assert res_on.dsm_stats == res_off.dsm_stats
    assert res_on.cluster_stats == res_off.cluster_stats
    assert _trace_digest(rec_on.events) == _trace_digest(rec_off.events)


def test_repeat_run_is_bit_identical():
    """Two in-process runs of the same program are event-for-event equal."""
    _, res_a, rec_a = _run(traced=True)
    _, res_b, rec_b = _run(traced=True)
    assert res_a.elapsed == res_b.elapsed
    assert res_a.dsm_stats == res_b.dsm_stats
    assert _trace_digest(rec_a.events) == _trace_digest(rec_b.events)


# ----------------------------------------------------------------------
# observer goldens: every observer's output, all four attached to one run
# ----------------------------------------------------------------------
#: attach order of the committed goldens; any order must give the same
#: snapshot (tests/test_probe.py runs a second one)
OBSERVER_ORDER = ("trace", "sanitizer", "profile", "metrics")

OBSERVER_GOLDENS = {
    "cg": GOLDEN_DIR / "observers_cg_4node.json",
    "sync": GOLDEN_DIR / "observers_sync_sdsm_4node.json",
}


def _cg_workload():
    from repro.apps import cg

    rt = ParadeRuntime(n_nodes=N_NODES, pool_bytes=1 << 22)
    return rt, cg.make_program("T", niter=2)


def _sync_workload(iters: int = 6):
    """The Fig 6/7 ``critical`` + ``single`` loops under the conventional
    translation: the KDSM distributed-lock / busy-wait path."""
    from repro.mpi.ops import SUM

    rt = ParadeRuntime(n_nodes=N_NODES, mode="sdsm", pool_bytes=1 << 20)

    def program(ctx):
        x = ctx.shared_scalar("obs_x")
        v = ctx.shared_scalar("obs_v")

        def critical_loop(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        def single_loop(tc, v):
            for i in range(iters):
                def init(i=i):
                    return float(i)
                    yield  # `single` bodies are generators

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(critical_loop, x)
        total = yield from ctx.scalar(x).get()
        yield from ctx.parallel(single_loop, v)
        return float(total)

    return rt, program


_OBSERVED_WORKLOADS = {"cg": _cg_workload, "sync": _sync_workload}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def observed_snapshot(workload: str, order=OBSERVER_ORDER) -> dict:
    """Run *workload* with all four observers attached in *order* and
    digest everything each of them produced."""
    from repro.metrics import Metrics, install_default_sources
    from repro.profile import Profiler, ProfileReport
    from repro.sanitizer import Sanitizer

    rt, program = _OBSERVED_WORKLOADS[workload]()
    attach = {
        "trace": lambda: TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64),
        "sanitizer": lambda: Sanitizer(
            rt.sim, n_nodes=rt.cluster.n_nodes,
            page_size=rt.cluster.config.page_size,
        ),
        "profile": lambda: Profiler(rt.sim),
        "metrics": lambda: Metrics(rt.sim, period=1e-4),
    }
    obs = {name: attach[name]() for name in order}
    install_default_sources(obs["metrics"], rt)
    res = rt.run(program)
    obs["profile"].finalize()
    obs["metrics"].finalize()
    rec = obs["trace"]
    assert rec.n_dropped == 0
    report = ProfileReport.from_profiler(obs["profile"]).as_dict()
    # the dump carries no wall-clock field; meta stays empty so none can
    return {
        "elapsed": res.elapsed,
        "value": repr(res.value),
        "events_processed": rt.sim.events_processed,
        "n_trace_events": rec.n_emitted,
        "trace_jsonl_sha256": _trace_digest(rec.events),
        "profile_report_sha256": _sha(report),
        "profile_totals": report["totals"],
        "metrics_dump_sha256": _sha(obs["metrics"].dump()),
        "metrics_n_samples": obs["metrics"].n_samples,
        "sanitizer_report": obs["sanitizer"].format_report(),
    }


def _observer_golden(workload: str) -> dict:
    path = OBSERVER_GOLDENS[workload]
    if os.environ.get("REPRO_REGEN_GOLDENS") or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(observed_snapshot(workload), indent=2, sort_keys=True) + "\n"
        )
    return json.loads(path.read_text())


def test_observer_outputs_match_golden_cg():
    """Trace stream, profiler report (ledgers, hot tables, critical
    path), metrics dump, sanitizer report and the event count of one CG
    run with all four observers attached are pinned byte for byte."""
    assert observed_snapshot("cg") == _observer_golden("cg")


def test_observer_outputs_match_golden_sync_sdsm():
    """Same, for the distributed-lock / busy-wait path of mode="sdsm"."""
    assert observed_snapshot("sync") == _observer_golden("sync")
