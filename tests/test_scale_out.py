"""Scale-out hardening tests: tree barrier, locks, 16-node goldens.

The hierarchical-synchronization knob (``DsmConfig.barrier_fanin``)
restructures *who talks to whom* at barriers without changing what is
computed.  These tests pin that contract:

* 16-node goldens (helmholtz + cg) for the hierarchical configuration —
  the large-cluster counterpart of ``test_determinism_golden.py``;
* flat-vs-tree value identity, with the master's per-epoch arrival
  inflow capped at the fan-in;
* the released-epoch watermark that keeps late/duplicate arrival frames
  from seeding ghost arrival entries (the latent flat-barrier bug);
* bit-identical recovery under the chaos ``dup`` plan with the tree on
  (duplicated relay frames must be suppressed per-hop);
* a critical region serialises under the default and the hierarchical
  configuration alike.

Regenerate goldens (only when an *intentional* protocol change lands)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_scale_out.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.apps import cg, helmholtz
from repro.chaos import plan_by_name
from repro.cluster.network import Message
from repro.runtime import ParadeRuntime
from repro.trace import TraceRecorder

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

N_NODES = 16

WORKLOADS = {
    "helmholtz": {
        "factory": lambda: helmholtz.make_program(n=48, m=48, max_iters=3),
        "pool": 1 << 21,
    },
    "cg": {
        "factory": lambda: cg.make_program("T", niter=1),
        "pool": 1 << 21,
    },
}


def _run(name, n_nodes=N_NODES, hier=True, traced=False, **kw):
    spec = WORKLOADS[name]
    rt = ParadeRuntime(
        n_nodes=n_nodes, pool_bytes=spec["pool"], hierarchical=hier, **kw
    )
    rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64) if traced else None
    res = rt.run(spec["factory"]())
    return rt, res, rec


def _value_digest(res) -> str:
    return hashlib.sha256(
        json.dumps(res.value, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _trace_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev.as_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# 16-node hierarchical goldens
# ----------------------------------------------------------------------
def _golden_path(name) -> pathlib.Path:
    return GOLDEN_DIR / f"determinism_{name}_16node_hier.json"


def _snapshot(name) -> dict:
    rt, res, rec = _run(name, traced=True, sanitize=True)
    assert rt.sanitizer.ok, rt.sanitizer.format_report()
    return {
        "elapsed": res.elapsed,
        "total_messages": int(res.cluster_stats["total_messages"]),
        "total_bytes": int(res.cluster_stats["total_bytes"]),
        "dsm_stats": res.dsm_stats,
        "barrier_epochs": [dn._barrier_epoch for dn in rt.dsm.nodes],
        "n_trace_events": rec.n_emitted,
        "trace_digest": _trace_digest(rec.events),
        "value_digest": _value_digest(res),
    }


def _load_or_regen(name) -> dict:
    path = _golden_path(name)
    if os.environ.get("REPRO_REGEN_GOLDENS") or not path.exists():
        snap = _snapshot(name)
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_16node_hier_run_matches_golden(name):
    """Virtual time, stats, values and the full trace stream of a
    16-node tree-barrier run are pinned byte-for-byte, with the sanitizer
    checking the protocol live on the same run."""
    golden = _load_or_regen(name)
    rt, res, rec = _run(name, traced=True, sanitize=True)
    assert rt.sanitizer.ok, rt.sanitizer.format_report()
    assert res.elapsed == golden["elapsed"]
    assert int(res.cluster_stats["total_messages"]) == golden["total_messages"]
    assert int(res.cluster_stats["total_bytes"]) == golden["total_bytes"]
    assert res.dsm_stats == golden["dsm_stats"]
    assert [dn._barrier_epoch for dn in rt.dsm.nodes] == golden["barrier_epochs"]
    assert rec.n_emitted == golden["n_trace_events"]
    assert _trace_digest(rec.events) == golden["trace_digest"]
    assert _value_digest(res) == golden["value_digest"]


# ----------------------------------------------------------------------
# flat vs tree: same values, capped master inflow
# ----------------------------------------------------------------------
def test_tree_barrier_caps_master_inflow_and_preserves_values():
    rt_flat, res_flat, _ = _run("helmholtz", hier=False)
    rt_tree, res_tree, _ = _run("helmholtz", hier=True)

    assert _value_digest(res_flat) == _value_digest(res_tree)

    epochs = rt_flat.dsm.nodes[0]._barrier_epoch
    assert epochs == rt_tree.dsm.nodes[0]._barrier_epoch
    flat_rx = rt_flat.dsm.nodes[0].stats.barrier_arrivals_rx
    tree_rx = rt_tree.dsm.nodes[0].stats.barrier_arrivals_rx
    fanin = rt_tree.dsm.nodes[0].config.barrier_fanin

    # flat master: one arrival frame from every other node, every epoch
    assert flat_rx == (N_NODES - 1) * epochs
    # tree master: at most fan-in subtree aggregates per epoch
    assert fanin >= 2
    assert tree_rx <= fanin * epochs
    # the interior did real work: relays in both directions, notices
    # folded before reaching the root
    assert res_tree.dsm_stats["barrier_relays"] > 0
    assert res_tree.dsm_stats["notices_merged"] > 0
    assert res_flat.dsm_stats["barrier_relays"] == 0
    assert res_flat.dsm_stats["notices_merged"] == 0


# ----------------------------------------------------------------------
# released-epoch watermark: late/duplicate arrivals must be dropped
# ----------------------------------------------------------------------
def _late_arrival(node, epoch, payload):
    msg = Message(src=1, dst=node.id, nbytes=64, payload=payload,
                  tag=("bar", "arr", epoch))
    # handle_barrier is a generator; the drop path exits before any yield
    assert list(node.handle_barrier(msg)) == []


def test_late_arrival_after_release_leaves_no_ghost_entry():
    """Regression: a straggler or duplicated arrival frame for an
    already-released epoch used to ``setdefault`` a fresh arrivals dict
    that could never reach quorum, wedging a later barrier.  The
    watermark drops it."""
    rt, _res, _ = _run("helmholtz", n_nodes=4, hier=False)
    master = rt.dsm.nodes[0]
    released = master._bar_released
    assert released >= 0
    rx_before = master.stats.barrier_arrivals_rx

    for epoch in (0, released):
        _late_arrival(master, epoch, (1, [], []))
        assert epoch not in master._bar_arrivals

    assert master._bar_arrivals == {}
    assert master.stats.barrier_arrivals_rx == rx_before


def test_late_arrival_dropped_in_tree_mode_too():
    rt, _res, _ = _run("helmholtz", n_nodes=4, hier=True)
    master = rt.dsm.nodes[0]
    rx_before = master.stats.barrier_arrivals_rx

    _late_arrival(master, master._bar_released, (1, {}, None, {}))
    assert master._bar_agg == {}
    assert master.stats.barrier_arrivals_rx == rx_before


# ----------------------------------------------------------------------
# chaos dup plan with the tree on: relay frames are deduped per hop
# ----------------------------------------------------------------------
def test_dup_plan_recovers_bit_identically_with_tree_barrier():
    _, clean, _ = _run("helmholtz", n_nodes=4, hier=True)
    _, dup, _ = _run("helmholtz", n_nodes=4, hier=True,
                     fault_plan=plan_by_name("dup"), chaos_seed=0)
    assert _value_digest(dup) == _value_digest(clean)
    assert dup.chaos_stats["dups_injected"] > 0
    assert dup.chaos_stats["dup_suppressed"] == dup.chaos_stats["dups_injected"]


# ----------------------------------------------------------------------
# locks
# ----------------------------------------------------------------------
def _critical_program(ctx):
    log = []

    def body(tc):
        def crit():
            log.append(tc.tid)
            yield tc.sim.timeout(1e-6)
            return None

        yield from tc.critical_region(crit, name="mysec")

    yield from ctx.parallel(body)
    return log


@pytest.mark.parametrize("hier", [False, True], ids=["default", "hierarchical"])
def test_critical_region_serialises(hier):
    """Lock ``l`` is managed by node ``l % n`` in either configuration."""
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20, hierarchical=hier)
    res = rt.run(_critical_program)
    assert sorted(res.value) == list(range(8))
    assert res.dsm_stats["lock_acquires"] == 8
    assert res.dsm_stats["lock_grants"] == 8


# ----------------------------------------------------------------------
# every stats counter must be documented
# ----------------------------------------------------------------------
def test_every_dsm_stats_key_is_documented():
    """The DsmNodeStats docstring table and RunResult's stats prose are
    the stats contract; a counter that isn't named there is invisible to
    users.  Every ``as_dict`` key must appear in both docstrings (the
    scale-out counters included)."""
    from repro.dsm.stats import DsmNodeStats
    from repro.runtime.results import RunResult

    keys = set(DsmNodeStats().as_dict())
    assert {
        "barrier_arrivals_rx", "barrier_relays", "notices_merged",
        "lock_grants", "lock_remote_grants",
    } <= keys
    for key in keys:
        assert key in DsmNodeStats.__doc__, f"{key} missing from stats table"
    for key in ("barrier_relays", "notices_merged", "barrier_arrivals_rx",
                "lock_grants", "lock_remote_grants"):
        assert key in RunResult.__doc__, f"{key} missing from RunResult docs"


def test_every_dsm_config_field_is_in_the_flag_ledger_and_read():
    """docs/PERFORMANCE.md "Flag ledger" is the options contract: every
    ``DsmConfig`` field has a row saying what it exists for, and the
    protocol reads it somewhere outside ``config.py`` — a field with no
    row has no stated reason to exist, one nothing reads selects nothing.
    Both ways: a live row names only fields, and a deleted row names
    none (a deleted field's row moves tables, it is not copied)."""
    import dataclasses
    import re

    from repro.dsm.config import DsmConfig

    root = pathlib.Path(__file__).resolve().parents[1]
    doc = (root / "docs" / "PERFORMANCE.md").read_text()
    # the table of live fields, then the deleted rows kept for the record
    live, deleted = doc.split("## Flag ledger", 1)[1].split("\n## ", 1)[0].split(
        "\nDeleted (", 1)

    def first_cells(table):
        # a row's first cell names one field, or two that only work
        # together (a deleted row also names what went with it)
        return {
            name
            for line in table.splitlines() if line.startswith("| `")
            for name in re.findall(r"`(\w+)`", line.split("|")[1])
        }

    rows, gone = first_cells(live), first_cells(deleted)
    fields = {f.name for f in dataclasses.fields(DsmConfig)}
    assert rows <= fields, f"live Flag ledger rows name no field: {sorted(rows - fields)}"
    assert not gone & fields, f"deleted Flag ledger rows name live fields: {sorted(gone & fields)}"
    src = "\n".join(
        p.read_text() for p in sorted((root / "src" / "repro").rglob("*.py"))
        if p.name != "config.py" or p.parent.name != "dsm"
    )
    for name in sorted(fields):
        assert name in rows, f"DsmConfig.{name} has no Flag ledger row"
        assert re.search(rf"\b\w*(config|dc)\.{name}\b", src), (
            f"DsmConfig.{name} is read nowhere under src/repro"
        )
