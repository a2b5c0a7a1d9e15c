"""The paper's §8 future-work items, implemented and demonstrated.

1. **Cluster-aware loop scheduling** — "the current version of ParADE
   supports only the static loop scheduling": we add dynamic and guided
   schedules via a master-node chunk dispenser and measure them on a
   maximally imbalanced (triangular) load.
2. **Adaptive configuration** — "more processors do not always give better
   performance ... we want to find the best configuration": autotune a
   workload over the (nodes × threads/CPUs) grid.
3. **Smarter translator** — "the translator can analyze locality of
   arrays": the §7/§8 guideline linter flags partitioned arrays whose
   synchronisation could be elided, plus scope/critical-section issues.

Run:  python examples/future_work.py
"""

from repro.runtime import ParadeRuntime
from repro.mpi.ops import SUM
from repro.bench.autotune import find_best_config
from repro.bench.figures import registered_programs
from repro.translator.guidelines import report

N = 300


def make_imbalanced(sched):
    def program(ctx):
        total = ctx.shared_scalar("t")

        def body(tc, total):
            part = 0.0
            if sched == "static":
                lo, hi = tc.for_range(0, N)
                for i in range(lo, hi):
                    yield from tc.compute(1500.0 * (i + 1))  # triangular load
                    part += i
            else:
                loop = tc.dynamic_loop(0, N, chunk=4, sched=sched)
                while True:
                    rng = yield from loop.next_chunk()
                    if rng is None:
                        break
                    for i in range(*rng):
                        yield from tc.compute(1500.0 * (i + 1))
                        part += i
            yield from tc.reduce_into(total, part, SUM)

        yield from ctx.parallel(body, total)
        v = yield from ctx.scalar(total).get()
        return float(v)

    return program


LINT_DEMO = """
void solver(void)
{
    int i;
    double x;
    double tmp[256];
    double out[1024];
    #pragma omp parallel private(i)
    {
        #pragma omp for
        for (i = 0; i < 1024; i++) {
            tmp[i % 256] = i * 2.0;
            out[i] = tmp[i % 256] + 1.0;
        }
        #pragma omp critical
        x = x + 1.0;
    }
}
"""


def main():
    print("== 1. loop scheduling on an imbalanced loop (4 nodes) ==")
    for sched in ("static", "dynamic", "guided"):
        rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 20)
        res = rt.run(make_imbalanced(sched))
        chunks = rt.dynamic_scheduler.total_chunks
        print(f"  {sched:8s}: {res.elapsed*1e3:8.2f} ms  (dispenser chunks: {chunks})")
    print()

    print("== 2. adaptive configuration search (NAS EP class T) ==")
    result = find_best_config(registered_programs()["ep"], nodes=(1, 2, 4, 8))
    print(result.table())
    print()

    print("== 3. translator guideline linter (§7 + §8 locality) ==")
    print(report(LINT_DEMO))


if __name__ == "__main__":
    main()
