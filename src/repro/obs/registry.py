"""Hierarchical stats registry: counters, gauges, histograms, providers.

Every subsystem (memory controllers, banks, mitigation policies, cores,
the exec engine) registers itself here under a dotted prefix and
:meth:`StatsRegistry.snapshot` flattens the whole tree into one
``{"mc.0.row_hits": 1234, ...}`` dict with a stable, sorted key order.
That dict is what :class:`~repro.sim.system.SystemResult` carries and
what the on-disk result cache round-trips, so a cached run is exactly as
inspectable as a fresh one.

Two registration styles coexist:

* **owned metrics** — ``registry.counter("exec.points")`` returns a
  live :class:`Counter` the caller increments; the registry snapshots it
  by name;
* **providers** — ``registry.register("mc.0", fn)`` where ``fn``
  returns a (possibly nested) dict when the snapshot is taken. This is
  the zero-cost path: subsystems keep mutating their existing plain
  dataclass stats and pay nothing until someone snapshots.

Snapshot values are ints and floats only; nested dicts flatten with
``.`` separators. Keys are emitted sorted, which makes snapshots
directly comparable across runs (the determinism tests rely on
this).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Mapping

Number = int | float
Provider = Callable[[], Mapping[str, Any]]


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with percentile estimates.

    ``bounds`` are inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above ``bounds[-1]``. Percentile
    estimates return the upper edge of the bucket the rank falls in
    (clamped to ``bounds[-1]`` for the overflow bucket), which keeps
    snapshots integer-exact and deterministic.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: list[int] | tuple[int, ...]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Number:
        """Upper bucket edge containing the ``p``-quantile.

        Pinned edge behaviour (tests/obs/test_registry.py):

        * ``p`` outside ``[0, 1]`` raises :class:`ValueError`;
        * an empty histogram returns 0 for any valid ``p``;
        * ``p == 0`` returns the first *non-empty* bucket's edge (the
          minimum observation's bucket), not ``bounds[0]``;
        * ``p == 1`` returns the last non-empty bucket's edge;
        * ranks landing in the overflow bucket clamp to ``bounds[-1]``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile p must be in [0, 1], got {p!r}")
        if not self.count:
            return 0
        rank = p * self.count
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            if not bucket:
                continue  # empty buckets never satisfy a rank
            cumulative += bucket
            if cumulative >= rank:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]

    def as_dict(self) -> dict[str, Number]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class StatsRegistry:
    """A tree of named metrics and lazy stat providers."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._providers: list[tuple[str, Provider]] = []

    # -- owned metrics -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._metric(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._metric(name, Gauge)

    def histogram(self, name: str,
                  bounds: list[int] | tuple[int, ...]) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(bounds)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def _metric(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif not isinstance(metric, cls):
            raise TypeError(f"{name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    # -- providers ---------------------------------------------------------
    def register(self, prefix: str, provider: Provider) -> None:
        """Attach a callable returning a (nested) dict of numbers."""
        self._providers.append((prefix, provider))

    # -- snapshot ----------------------------------------------------------
    def snapshot(self) -> dict[str, Number]:
        """Flatten everything into ``{dotted.name: number}``, sorted."""
        flat: dict[str, Number] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                _flatten(name, metric.as_dict(), flat)
            else:
                flat[name] = metric.value
        for prefix, provider in self._providers:
            _flatten(prefix, provider(), flat)
        return dict(sorted(flat.items()))


def _flatten(prefix: str, data: Mapping[str, Any],
             out: dict[str, Number]) -> None:
    for key, value in data.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            _flatten(name, value, out)
        elif isinstance(value, Histogram):
            _flatten(name, value.as_dict(), out)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"stat {name!r} is {type(value).__name__}, "
                            f"expected int or float")
        else:
            out[name] = value
