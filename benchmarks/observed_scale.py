"""16-node CG with trace, profiler and metrics attached, under a memory ceiling.

Observer state is kept as flat columns (bytes per recorded fact), so an
observed run's peak resident set stays close to a detached one's.  This
script runs the ``cg`` workload of ``python -m repro.metrics run`` on 16
nodes with a 2^18-row trace ring (queue depth every 64th event), an
interval-recording profiler and the metrics sampler, then compares the
process's high-water mark (``VmHWM``) with :data:`CEILING_MIB`, set at
1.3x the value measured when the columns were introduced.  Exit status 1
means observer state grew back towards a Python object per fact.

    PYTHONPATH=src python benchmarks/observed_scale.py
"""

from __future__ import annotations

import sys

#: 1.3x the measured VmHWM (CPython 3.11, x86-64 Linux: 104.5 MiB; with
#: the per-fact objects the columns replaced it measured 159.4 MiB)
CEILING_MIB = 136


def vm_hwm_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    from repro.bench.figures import registered_programs
    from repro.runtime import ParadeRuntime
    from repro.trace import TraceRecorder

    entry = registered_programs()["cg"]
    rt = ParadeRuntime(n_nodes=16, pool_bytes=entry["pool_bytes"],
                       profile=True, metrics=True)
    rec = TraceRecorder(rt.sim, capacity=1 << 18, queue_stride=64)
    res = rt.run(entry["factory"]())
    hwm = vm_hwm_mib()
    print(f"cg on 16 nodes observed: {res.elapsed * 1e3:.3f} virtual ms, "
          f"{rt.sim.events_processed} events, {len(rec)} trace rows, "
          f"{len(rt.profiler.intervals)} profiler intervals, "
          f"{rt.metrics.n_samples} metrics samples; "
          f"VmHWM {hwm:.1f} MiB (ceiling {CEILING_MIB} MiB)")
    return 0 if hwm <= CEILING_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
