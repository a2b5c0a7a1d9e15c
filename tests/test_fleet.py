"""Fleet executor + run cache contracts (``repro.fleet``).

The load-bearing guarantees, pinned at tier-1:

* **parallel == sequential** — ``run_many(jobs=4)`` returns records
  byte-identical to ``jobs=1`` on every deterministic field, including
  trace digests and the merged metrics histograms (only wall-clock and
  cache bookkeeping may differ);
* **warm cache executes nothing** — a second ``run_many`` over the same
  specs serves every record from ``.parade-cache`` with zero
  re-simulations, bit-identical to the cold run;
* **a stale source digest misses** — cache entries are keyed by the
  repro source-tree digest, so a poisoned/outdated digest can never
  serve a stale record;
* **failure isolation** — one crashing spec reports ``ok: False``; the
  rest of the fleet completes;
* **bounded failure** — a worker process that dies, or a spec that never
  finishes, becomes ``ok: False`` records, never a hang; a corrupt cache
  entry reads as a miss.
"""

import time

from repro.fleet import executor

from repro.fleet import (
    RunCache,
    RunSpec,
    deterministic_view,
    execute,
    merged_histograms,
    resolve_jobs,
    run_many,
)

#: tiny two-spec basket: one observer-heavy run, one accelerated run
SPECS = [
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
        workload="md",
        factory=("repro.apps.md", "make_program"),
        factory_kwargs={"n_particles": 16, "steps": 1},
        n_nodes=2,
        pool_bytes=1 << 20,
        accel=True,
        metrics=True,
    ),
]


def test_spec_canonical_is_deterministic_and_serializable():
    a, b = SPECS[0], RunSpec.from_dict(__import__("dataclasses").asdict(SPECS[0]))
    assert a == b
    assert a.canonical() == b.canonical()
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != SPECS[1].fingerprint()


def test_parallel_matches_sequential_bit_for_bit():
    """The tentpole contract: spawned workers importing ``repro`` fresh
    produce records identical to in-process runs — per-workload stats,
    value digests, trace digests, phases, and the merged histograms."""
    seq = run_many(SPECS, jobs=1)
    par = run_many(SPECS, jobs=4)
    assert seq.n_failed == 0 and par.n_failed == 0
    assert par.jobs == 4
    for a, b in zip(seq.records, par.records):
        assert deterministic_view(a) == deterministic_view(b)
    # trace digest + histogram merge called out explicitly: the fields
    # most sensitive to any ordering or environment divergence
    assert seq.records[0]["trace"]["digest"] == par.records[0]["trace"]["digest"]
    assert merged_histograms(seq.records) == merged_histograms(par.records)


def test_run_many_matches_direct_execute():
    rec = execute(SPECS[1])
    fleet = run_many([SPECS[1]], jobs=1)
    assert deterministic_view(fleet.records[0]) == deterministic_view(rec)


def test_warm_cache_executes_zero_simulations(tmp_path):
    cache = RunCache(root=str(tmp_path))
    cold = run_many(SPECS, jobs=1, cache=cache)
    assert cold.n_executed == len(SPECS) and cold.n_hits == 0
    warm = run_many(SPECS, jobs=1, cache=cache)
    assert warm.n_executed == 0
    assert warm.n_hits == len(SPECS)
    for a, b in zip(cold.records, warm.records):
        assert b["cached"] is True
        assert deterministic_view(a) == deterministic_view(b)
    assert cache.counters()["stores"] == len(SPECS)


def test_poisoned_source_digest_misses(tmp_path):
    fresh = RunCache(root=str(tmp_path))
    run_many(SPECS, jobs=1, cache=fresh)
    stale = RunCache(root=str(tmp_path), source="0" * 64)
    report = run_many(SPECS, jobs=1, cache=stale)
    assert report.n_hits == 0
    assert report.n_executed == len(SPECS)
    # and the two digests really differ — the fresh cache still hits
    again = RunCache(root=str(tmp_path))
    assert again.get(SPECS[0]) is not None


def test_failed_runs_are_never_cached(tmp_path):
    bad = RunSpec(
        workload="broken",
        factory=("repro.apps.helmholtz", "no_such_factory"),
        n_nodes=2,
        pool_bytes=1 << 20,
    )
    cache = RunCache(root=str(tmp_path))
    first = run_many([bad], jobs=1, cache=cache)
    assert first.n_failed == 1
    assert "AttributeError" in first.records[0]["error"]
    second = run_many([bad], jobs=1, cache=cache)
    assert second.n_hits == 0 and second.n_executed == 1


def test_failure_isolation_other_specs_complete():
    bad = RunSpec(
        workload="broken",
        factory=("repro.apps.helmholtz", "no_such_factory"),
        n_nodes=2,
        pool_bytes=1 << 20,
    )
    fleet = run_many([SPECS[1], bad], jobs=1)
    assert fleet.n_failed == 1 and not fleet.ok
    good, broken = fleet.records
    assert good["ok"] and good["events"] > 0
    assert not broken["ok"] and broken["workload"] == "broken"
    assert "cache hits=0" in fleet.summary()


def test_a_killed_worker_is_a_failed_record_not_a_hang():
    # the factory takes its own worker process down mid-run, the way the
    # OOM killer would: no exception, no result, no goodbye
    killer = RunSpec(
        workload="killer",
        factory=("os", "_exit"),
        factory_kwargs={"status": 9},
        n_nodes=2,
        pool_bytes=1 << 20,
    )
    t0 = time.monotonic()
    fleet = run_many([killer, SPECS[1]], jobs=2)
    assert time.monotonic() - t0 < 60
    assert not fleet.ok and len(fleet.records) == 2
    dead = fleet.records[0]
    assert not dead["ok"] and dead["workload"] == "killer"
    assert "worker process died" in dead["error"]


def test_an_overlong_spec_is_a_failed_record_not_a_hang(monkeypatch):
    monkeypatch.setattr(executor, "SPEC_CEILING_S", 3.0)
    hang = RunSpec(
        workload="hang", factory=("signal", "pause"), n_nodes=2, pool_bytes=1 << 20
    )
    t0 = time.monotonic()
    fleet = run_many([SPECS[1], SPECS[1], hang], jobs=2)
    assert time.monotonic() - t0 < 60
    assert [r["ok"] for r in fleet.records] == [True, True, False]
    assert "within 3 s" in fleet.records[2]["error"]


def test_a_corrupt_cache_entry_reads_as_a_miss(tmp_path):
    cache = RunCache(root=str(tmp_path))
    cold = run_many([SPECS[1]], jobs=1, cache=cache)
    (entry,) = cache.root.glob("??/*.json")
    entry.write_text(entry.read_text()[:40])  # torn write
    again = RunCache(root=str(tmp_path))
    assert again.get(SPECS[1]) is None and again.misses == 1
    rerun = run_many([SPECS[1]], jobs=1, cache=again)
    assert rerun.n_executed == 1 and rerun.ok
    assert deterministic_view(rerun.records[0]) == deterministic_view(cold.records[0])
    assert RunCache(root=str(tmp_path)).get(SPECS[1]) is not None  # healed


def test_resolve_jobs_precedence(monkeypatch):
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("PARADE_JOBS", "7")
    assert resolve_jobs() == 7
    assert resolve_jobs(2) == 2  # explicit beats env
    monkeypatch.delenv("PARADE_JOBS")
    assert resolve_jobs() >= 1
    assert resolve_jobs(0) == 1  # clamped


def test_cache_eviction_cap(tmp_path):
    cache = RunCache(root=str(tmp_path), cap=1)
    run_many(SPECS, jobs=1, cache=cache)
    entries = list(cache.root.glob("??/*.json"))
    assert len(entries) == 1  # oldest evicted past the cap
