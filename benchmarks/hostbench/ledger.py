"""Host-time ledger: bucket a ``cProfile`` pass by layer, from outside.

A layer is a package under ``src/repro/``.  A function's *self* time goes
to the layer that owns its source file; C-level functions (builtins,
method descriptors), numpy/scipy and the standard library go to
``numpy`` — "time spent below the repo's own Python".  That makes the
shares a partition of the profiled run: they sum to 1.

``calls_in`` counts calls that cross into a layer from a function of
another layer (the pstats caller table), i.e. how often the boundary is
crossed, which is what a batching or inlining change moves.

cProfile charges a fixed cost per call, so layers made of many small
functions (``sim``) read larger here than in an unprofiled run.  The
shares rank layers and show where a saving landed; wall-clock claims come
from the untraced runs only.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict

LAYERS = (
    "sim", "cluster", "vm", "dsm", "mpi", "runtime", "apps",
    "numpy", "observers", "harness", "translator",
)

_PACKAGE_LAYER = {
    "trace": "observers", "profile": "observers", "metrics": "observers",
    "sanitizer": "observers", "chaos": "observers",
    "fleet": "harness", "bench": "harness",
}
_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str:
    """The layer owning *filename* (``numpy`` for anything outside
    ``src/repro/`` and for the package's two top-level helper modules)."""
    i = filename.find(_REPRO)
    if i < 0:
        return "numpy"
    package = filename[i + len(_REPRO):].split(os.sep)[0]
    layer = _PACKAGE_LAYER.get(package, package)
    return layer if layer in LAYERS else "numpy"


def bucket_profile(profiler) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "share", "calls_in"}}`` for one profile."""
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        self_s[layer] += tt
        for caller, (ncalls, _cc2, _tt2, _ct2) in callers.items():
            if layer_of(caller[0]) != layer:
                calls_in[layer] += ncalls
    total = sum(self_s.values())
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total else 0.0,
            "calls_in": calls_in[layer],
        }
        for layer in LAYERS
    }
