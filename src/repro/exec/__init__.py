"""Sweep execution: one point resolver plus a persistent result cache.

Public surface:

* :class:`~repro.exec.resolver.Resolver` — the one chain every design
  point goes through (in-flight dedup → memo → cache → pool → store),
  with its async front-end ``resolve(point)`` for the serve daemon,
* :class:`~repro.exec.engine.SweepEngine` /
  :func:`~repro.exec.engine.run_points` — its sync front-end: run
  design points across a process pool with deterministic merge order,
* :class:`~repro.exec.cache.ResultCache` /
  :func:`~repro.exec.cache.point_key` — the content-addressed on-disk
  store underneath (``REPRO_CACHE_DIR``),
* :mod:`repro.exec.serialize` — the JSON schema cached results use.

``python -m repro.exec.smoke`` runs the end-to-end self-check (inline
vs pool equivalence, warm-cache rerun with zero simulations).
"""

from .cache import (CACHE_DIR_ENV, CACHE_SALT, CacheCounters, ResultCache,
                    default_cache_dir, point_key)
from .engine import PointOutcome, SweepEngine, run_points
from .resolver import PointFailed, ResolveMetrics, Resolver
from .serialize import (SCHEMA_VERSION, result_from_dict, result_to_dict)

__all__ = [
    "CACHE_DIR_ENV", "CACHE_SALT", "CacheCounters", "ResultCache",
    "default_cache_dir", "point_key",
    "PointOutcome", "SweepEngine", "run_points",
    "PointFailed", "ResolveMetrics", "Resolver",
    "SCHEMA_VERSION", "result_from_dict", "result_to_dict",
]
