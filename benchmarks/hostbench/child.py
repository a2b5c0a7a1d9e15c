"""One hostbench measurement in a fresh interpreter.

``python child.py '<json spec>'`` performs exactly one job and prints one
JSON object as its last stdout line:

* ``{"job": "run", ...}``     — build one workload, time ``runtime.run``,
  check the value; optionally under ``cProfile`` (the traced run);
* ``{"job": "warm", ...}``    — import and build only (fills the page cache
  and ``__pycache__`` so the first measured set-up is not a cold one);
* ``{"job": "kernels", ...}`` — the per-layer microkernels;
* ``{"job": "import"}``       — time the package import alone.

The driver stamps ``launch`` (``time.monotonic()``, one clock for every
process on the host) just before spawning, so ``setup_s`` covers
interpreter start + imports + runtime construction + program factory.
"""

from __future__ import annotations

import json
import sys
import time


def _peak_rss_mib() -> float:
    """This process's resident high-water mark.  ``VmHWM`` belongs to the
    address space, so it starts from zero at exec; ``ru_maxrss`` does not
    (a child reports at least its parent's size at fork), which would make
    the number depend on what the driver happened to import."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run(spec: dict) -> dict:
    from workloads import BY_NAME

    wl = BY_NAME[spec["workload"]]
    observe = wl.observed and not spec.get("detached", False)
    rt, program, check = wl.build(
        spec["seed"], spec["quick"], observe, spec.get("expected")
    )
    ready = time.monotonic()
    out = {"setup_s": ready - spec["launch"]}
    if spec["job"] == "warm":
        return out

    profiler = None
    if spec.get("cprofile"):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    res = rt.run(program)
    wall = time.perf_counter() - t0
    if profiler is not None:
        profiler.disable()
    # before check(): the reference solutions allocate, the run is what
    # the user's memory pays for
    peak_mib = _peak_rss_mib()

    ok, digest = check(res)
    cs, ds, ms = res.cluster_stats, res.dsm_stats, res.mpi_stats
    out.update(
        wall_s=wall,
        peak_rss_mb=peak_mib,
        value_ok=bool(ok),
        digest=digest,
        virtual_s=res.elapsed,
        counts={
            "sim.events": int(cs["events_processed"]),
            "cluster.msgs_sent": int(cs["total_messages"]),
            "cluster.bytes_sent": int(cs["total_bytes"]),
            "dsm.faults": int(ds.get("read_faults", 0) + ds.get("write_faults", 0)),
            "dsm.pages_fetched": int(ds.get("pages_fetched", 0)),
            "dsm.diffs_sent": int(ds.get("diffs_sent", 0)),
            "dsm.diff_bytes": int(ds.get("diff_bytes", 0)),
            "dsm.barriers": int(ds.get("barriers", 0)),
            "dsm.lock_acquires": int(ds.get("lock_acquires", 0)),
            "dsm.lock_remote_acquires": int(ds.get("lock_remote_acquires", 0)),
            "mpi.p2p": int(ms["p2p"]),
            "mpi.collectives": int(ms["collectives"]),
        },
    )
    if profiler is not None:
        from ledger import bucket_profile

        out["ledger"] = bucket_profile(profiler)
    return out


def _import() -> dict:
    t0 = time.perf_counter()
    import repro.apps  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.runtime  # noqa: F401

    return {"import_s": time.perf_counter() - t0}


def main() -> int:
    spec = json.loads(sys.argv[1])
    job = spec["job"]
    if job in ("run", "warm"):
        out = _run(spec)
    elif job == "kernels":
        from kernels import run_kernels

        out = run_kernels(spec["seed"], spec["quick"], spec["workdir"])
    elif job == "import":
        out = _import()
    else:
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
