"""Benchmark applications (§6.2).

Python ports of the paper's four evaluation programs, each with a
sequential numpy reference implementation (for numerical validation) and an
OpenMP-API version that runs on the simulated cluster runtime:

* :mod:`repro.apps.ep`        — NAS EP kernel (NPB 2.3), embarrassingly parallel;
* :mod:`repro.apps.cg`        — NAS CG kernel (NPB 2.3), conjugate gradient on a
  random sparse SPD system (exact ``makea`` matrix generation);
* :mod:`repro.apps.helmholtz` — the openmp.org ``jacobi.f`` sample: Helmholtz
  equation on a regular mesh, Jacobi iteration with over-relaxation;
* :mod:`repro.apps.md`        — the openmp.org ``md.f`` sample: velocity-Verlet
  molecular dynamics with O(n²) forces.

:mod:`repro.apps.nas_random` is the NAS 46-bit linear-congruential stream
(``randlc``/``vranlc``) with vectorised block generation and O(log n)
jump-ahead, validated against the published EP reference sums.
"""

import importlib

from repro.apps.nas_random import NasRandom, randlc, ipow46

__all__ = ["NasRandom", "randlc", "ipow46", "ep", "cg", "helmholtz", "md"]


def __getattr__(name):
    # PEP 562: a workload module loads on first use, so a run imports
    # only the apps it runs
    if name in ("ep", "cg", "helmholtz", "md"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
