"""Sweep execution: one point resolver plus a persistent result cache.

Public surface:

* :class:`~repro.exec.resolver.Resolver` — the one pass every list of
  design points goes through (dedup → memo → cache → pool → store),
  ``resolve_all(points)``, which the serve daemon runs once per job,
* :class:`~repro.exec.engine.SweepEngine` /
  :func:`~repro.exec.engine.run_points` — the same pass behind a
  synchronous ``run(points)``: design points across a process pool
  with deterministic merge order,
* :class:`~repro.exec.cache.ResultCache` /
  :func:`~repro.exec.cache.point_key` — the content-addressed on-disk
  store underneath (``REPRO_CACHE_DIR``),
* :mod:`repro.exec.serialize` — the JSON schema cached results use.

``tests/exec/test_engine.py`` pins its contracts: inline == pool,
and a warm-cache rerun simulates nothing.
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
