"""Content-addressed run cache.

Every fleet run is pure: the record is a function of the
:class:`~repro.fleet.spec.RunSpec` and of the simulator source code.
So the cache key is simply

    SHA-256( spec.canonical()  +  source-tree digest  +  record version
             +  Python minor version  +  numpy version )

where the source-tree digest hashes the contents of every ``*.py`` file
under the installed ``repro`` package in sorted path order.  Any edit to
any simulator module — protocol, runtime, apps, observers — changes the
digest, so every previously cached record silently becomes a miss:
there is no way to see a stale result after a code change (or under
another Python or numpy), and no invalidation logic to get wrong.

Entries live under ``.parade-cache/<key[:2]>/<key>.json`` (two-level
fan-out keeps directories small), written atomically via tmp+rename.
``PARADE_CACHE=0`` (or ``cache=None`` at the API level) disables the
cache; ``PARADE_CACHE_DIR`` moves it; ``PARADE_CACHE_CAP`` bounds the
entry count (oldest-mtime eviction past the cap, default 512).  Failed
runs are never cached.  Hit/miss/store counters are kept per
:class:`RunCache` instance and surfaced by every gate that uses one.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .spec import RECORD_VERSION, RunSpec

DEFAULT_CACHE_DIR = ".parade-cache"
DEFAULT_CAP = 512

_source_digest_memo: Optional[str] = None


def source_digest() -> str:
    """SHA-256 over the contents of every ``repro/**.py`` source file in
    sorted relative-path order (memoised per process — source files do
    not change under a running fleet)."""
    global _source_digest_memo
    if _source_digest_memo is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _source_digest_memo = h.hexdigest()
    return _source_digest_memo


def cache_enabled() -> bool:
    """False when ``PARADE_CACHE=0`` (the env escape hatch)."""
    return os.environ.get("PARADE_CACHE", "1") not in ("0", "false", "no")


class RunCache:
    """On-disk record store keyed by (spec, source digest).

    ``source`` is injectable for tests (a poisoned digest must miss);
    production callers leave it to :func:`source_digest`.
    """

    def __init__(self, root: Optional[str] = None, cap: Optional[int] = None,
                 source: Optional[str] = None):
        if root is None:
            root = os.environ.get("PARADE_CACHE_DIR", DEFAULT_CACHE_DIR)
        if cap is None:
            cap = int(os.environ.get("PARADE_CACHE_CAP", DEFAULT_CAP))
        self.root = Path(root)
        self.cap = cap
        self.source = source if source is not None else source_digest()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, spec: RunSpec) -> str:
        """The spec, the sources, the record schema and the Python and
        numpy versions a record was made under."""
        h = hashlib.sha256()
        for part in (spec.canonical(), self.source, str(RECORD_VERSION),
                     str(sys.version_info[:2]), np.__version__):
            h.update(part.encode() + b"\0")
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Dict]:
        """The cached record for *spec*, or ``None`` (counts the
        hit/miss either way).  A hit is marked ``cached: True``."""
        path = self._path(self.key(spec))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if record.get("record_version") != RECORD_VERSION or not record.get("ok"):
            self.misses += 1
            return None
        self.hits += 1
        record["cached"] = True
        # freshen mtime so hot entries survive eviction
        try:
            os.utime(path, None)
        except OSError:
            pass
        return record

    def put(self, spec: RunSpec, record: Dict) -> None:
        """Store a successful record (failures are never cached —
        re-running them is the only way to see them resolve)."""
        if not record.get("ok"):
            return
        to_store = {k: v for k, v in record.items() if k != "cached"}
        path = self._path(self.key(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(to_store, fh, sort_keys=True)
        os.replace(tmp, path)
        self.stores += 1
        self._evict()

    def _evict(self) -> None:
        """Drop oldest-mtime entries beyond the cap."""
        entries = sorted(
            self.root.glob("??/*.json"), key=lambda p: p.stat().st_mtime
        )
        for path in entries[: max(0, len(entries) - self.cap)]:
            try:
                path.unlink()
            except OSError:
                pass

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RunCache {self.root} cap={self.cap} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}>"
        )


def default_cache(no_cache: bool = False) -> Optional[RunCache]:
    """The cache a gate should use: a :class:`RunCache` unless disabled
    by the ``--no-cache`` flag or ``PARADE_CACHE=0``."""
    if no_cache or not cache_enabled():
        return None
    return RunCache()
