"""``SweepEngine.run(points)``: the resolver pass for the CLI and ``runner``.

Its callers are ``campaign run``, ``runner.simulate()``, and
``runner.slowdowns()``, which resolves a grid's points with their
baselines in one ``run`` for ``slowdown()``, ``sweep()``,
``replicate()`` and the experiment drivers.

Design points are embarrassingly parallel: every
:class:`~repro.sim.runner.DesignPoint` is simulated from its own seed
with no shared mutable state, so a sweep fans out across a process
pool and merges results back **in input order**, which makes the pool
path bit-identical to the inline one.

:class:`SweepEngine` is a :class:`~repro.exec.resolver.Resolver` whose
``run()`` runs the resolver's one pass (dedup → memo → cache → pool →
store, see :mod:`repro.exec.resolver`) on an event loop of its own, and
differs from the daemon in three ways:

* a cache hit is decoded into its result (and kept in the memo);
* tasks run inline when ``workers == 1`` or there is at most one,
  otherwise in a pool of ``min(workers, tasks)`` processes that lives
  for this one ``run()`` call, so no worker process outlives it;
* ``progress=callable`` receives one :class:`PointOutcome` per *unique*
  point as it resolves (completion order in the pool is
  nondeterministic; the returned result list is not).

The first point that fails raises
:class:`~repro.exec.resolver.PointFailed` naming it, and the tasks
still queued are cancelled. Read ``engine.metrics``
(:class:`~repro.exec.resolver.ResolveMetrics`) afterwards for totals,
the hit/miss split and wall time.

Environment knobs (all optional):

* ``REPRO_CACHE_DIR``  — enables the disk cache at that directory,
* ``REPRO_WORKERS``    — default worker count (else ``os.cpu_count()``);
  ``REPRO_WORKERS=1`` runs every point inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..obs.log import get_logger
from ..sim import runner
from .resolver import AUTO, Resolver, _wall_clock

log = get_logger(__name__)


@dataclass(frozen=True)
class PointOutcome:
    """One resolved design point, as reported to progress hooks."""

    index: int  #: position among the engine's unique points
    point: runner.DesignPoint
    result: Any
    source: str  #: "memo" | "cache" | "simulated"
    wall_s: float  #: simulation wall time (0.0 for memo/cache hits)


class SweepEngine(Resolver):
    """Resolve point lists through the resolver, in input order.

    Takes the :class:`~repro.exec.resolver.Resolver` parameters plus
    ``progress``, an optional hook receiving one :class:`PointOutcome`
    per unique point as it resolves.
    """

    def __init__(self, workers: int | None = None, cache: Any = AUTO,
                 use_memo: bool = True,
                 progress: Callable[[PointOutcome], None] | None = None,
                 **seams: Any):
        super().__init__(workers=workers, cache=cache, use_memo=use_memo,
                         **seams)
        self.progress = progress

    def run(self, points: Sequence[runner.DesignPoint]) -> list[Any]:
        """Resolve every point; returns results in input order."""
        import asyncio  # only here: see repro.exec.resolver

        start = _wall_clock()
        try:
            results = asyncio.run(self.resolve_all(points))
        except BaseException:
            self.shutdown(wait=False)  # drop the queued tasks
            raise
        else:
            self.shutdown()
        finally:
            self.metrics.wall_s += _wall_clock() - start
        log.debug("engine run: %s", self.metrics.summary())
        return results

    def _read(self, point: runner.DesignPoint, key: str) -> Any:
        """``point``'s decoded cache entry, or ``None``; a hit is kept
        in the memo too."""
        result = self.cache.get(point, key)
        if result is not None and self.use_memo:
            runner.memo[point] = result
        return result

    def _runs_inline(self, tasks: list) -> bool:
        """Inline with one worker or one task (blocking the loop, which
        this ``run`` owns alone); otherwise in a pool sized to the
        tasks."""
        self._pool_size = min(self.workers, len(tasks))
        return self.workers == 1 or len(tasks) <= 1

    def _report(self, index: int, point: runner.DesignPoint, result: Any,
                source: str, wall_s: float) -> None:
        if self.progress is not None:
            self.progress(PointOutcome(index, point, result, source,
                                       wall_s))


def run_points(points: Sequence[runner.DesignPoint],
               **engine_kwargs: Any) -> list[Any]:
    """One-shot engine run; results in input order."""
    return SweepEngine(**engine_kwargs).run(points)
