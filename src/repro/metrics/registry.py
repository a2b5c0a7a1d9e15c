"""Metric instruments: counters and log-bucketed histograms.

The registry is the *live* half of :mod:`repro.metrics` — hooks across
the stack update instruments as the simulation runs, and the sampler
(:mod:`repro.metrics.sampler`) snapshots them into time-series on a
deterministic virtual-time grid.

Instruments are keyed by ``(name, labels)`` where labels are an ordered
tuple of ``(key, value)`` string pairs, and :meth:`Metrics.dump
<repro.metrics.sampler.Metrics.dump>` writes them in that order.

Histogram bucketing
-------------------

:class:`Histogram` uses power-of-two buckets: bucket *k* holds values in
the half-open-from-below interval ``(2**(k-1), 2**k]``.  The index comes
from :func:`math.frexp`, so boundaries are *exact* — a value equal to
``2**k`` lands in bucket *k*, never one over due to float log rounding.
Non-positive observations (a zero-wait lock acquire is common) go to a
dedicated zero bucket.  Buckets are sparse dictionaries, so two
histograms built on different nodes always share a bucket layout and
:meth:`Histogram.merge` is exact and associative (integer adds).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

#: label set rendered as an ordered tuple of (key, value) pairs
Labels = Tuple[Tuple[str, str], ...]


def make_labels(labels: Dict[str, object]) -> Labels:
    """Canonical label tuple: string keys/values, sorted by key."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_index(value: float) -> Optional[int]:
    """Power-of-two bucket of *value*: the smallest k with value <= 2**k.

    Returns ``None`` for non-positive values (the zero bucket).  Exact at
    boundaries: ``bucket_index(2.0**k) == k`` for every representable k.
    """
    if value <= 0.0:
        return None
    m, e = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


def bucket_upper(index: int) -> float:
    """Inclusive upper bound of bucket *index* (``2**index``)."""
    return math.ldexp(1.0, index)


class Counter:
    """Monotonically increasing count (events, bytes, frames)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """Log2-bucketed latency histogram, mergeable across nodes.

    Tracks exact ``count`` / ``sum`` / ``min`` / ``max`` next to the
    sparse bucket counts, so rates and means are exact while quantiles
    are bucket-resolution (within a factor of 2, see :meth:`quantile`).
    """

    __slots__ = ("name", "labels", "buckets", "zero_count", "count", "sum",
                 "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        #: bucket index -> observation count (sparse)
        self.buckets: Dict[int, int] = {}
        #: observations <= 0 (zero-wait acquires, loopback latencies)
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        idx = bucket_index(value)
        if idx is None:
            self.zero_count += 1
        else:
            self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* in (exact: integer bucket adds; associative up to
        float addition order in ``sum``)."""
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        for attr, pick in (("min", min), ("max", max)):
            ov = getattr(other, attr)
            if ov is not None:
                sv = getattr(self, attr)
                setattr(self, attr, ov if sv is None else pick(sv, ov))
        return self

    # -- reading --------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile at bucket resolution.

        Returns the inclusive upper bound of the bucket holding the rank,
        clamped to the exact observed ``max`` — so for any q the estimate
        ``e`` and the true order statistic ``t`` satisfy
        ``t <= e <= 2 * t`` (equality at bucket boundaries), and 0.0 when
        the rank falls in the zero bucket.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if rank <= seen:
                upper = bucket_upper(idx)
                return upper if self.max is None else min(upper, self.max)
        return self.max if self.max is not None else 0.0

    def percentiles(self, qs=(50, 90, 99)) -> Dict[str, float]:
        out = {f"p{q}": self.quantile(q) for q in qs}
        out["max"] = self.max if self.max is not None else 0.0
        return out

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, name: str, labels: Labels, data: Dict) -> "Histogram":
        h = cls(name, labels)
        h.buckets = {int(k): int(v) for k, v in data.get("buckets", {}).items()}
        h.zero_count = int(data.get("zero_count", 0))
        h.count = int(data.get("count", 0))
        h.sum = float(data.get("sum", 0.0))
        h.min = data.get("min")
        h.max = data.get("max")
        return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram {self.name}{dict(self.labels)} n={self.count} "
            f"max={self.max}>"
        )


class MetricsRegistry:
    """Instruments keyed by ``(name, labels)``; one per metrics object.

    ``counter`` / ``histogram`` are get-or-create — hook
    sites call them unconditionally and the registry hands back the same
    instrument for the same key, so hot paths need no local caching to
    stay correct (they may cache the returned instrument for speed).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object]):
        key = (name, make_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator:
        """Instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def __len__(self) -> int:
        return len(self._instruments)

    def find(self, name: str) -> List:
        """Every instrument registered under *name* (any label set)."""
        return [inst for inst in self if inst.name == name]
