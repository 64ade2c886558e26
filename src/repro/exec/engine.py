"""Sync front-end of the point resolver: ``SweepEngine.run(points)``.

Design points are embarrassingly parallel: every
:class:`~repro.sim.runner.DesignPoint` is simulated from its own seed
with no shared mutable state, so a sweep fans out across a process
pool and merges results back **in input order**, which makes the pool
path bit-identical to the inline one.

:class:`SweepEngine` is a :class:`~repro.exec.resolver.Resolver` (in-flight
dedup → memo → cache → pool → store, see :mod:`repro.exec.resolver`)
with a synchronous ``run()``:

* repeats in the input list resolve once (``dedup_hits``);
* misses run inline when ``workers == 1`` or at most one point misses,
  otherwise in a pool of ``min(workers, misses)`` processes that lives
  for this one ``run()`` call, so no worker process outlives it;
* the first point that fails raises
  :class:`~repro.exec.resolver.PointFailed` naming it, and the points
  still queued are cancelled.

Observability: pass ``progress=callable`` to receive one
:class:`PointOutcome` per *unique* point as it completes (completion
order in the pool is nondeterministic; the returned result list is
not), and read ``engine.metrics``
(:class:`~repro.exec.resolver.ResolveMetrics`) afterwards
for totals, the hit/miss split and wall time.

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
        start = _wall_clock()
        points = list(points)
        unique = list(dict.fromkeys(points))
        self.metrics.requested += len(points)
        self.metrics.dedup_hits += len(points) - len(unique)

        resolved: dict[runner.DesignPoint, Any] = {}
        misses: list[tuple[int, runner.DesignPoint]] = []
        for index, point in enumerate(unique):
            result, source = self.lookup(point)
            if result is None:
                misses.append((index, point))
            else:
                self._resolved(resolved, index, point, result, source, 0.0)

        try:
            if self.workers == 1 or len(misses) <= 1:
                for index, point in misses:
                    result, wall = self.simulate_inline(point)
                    self._resolved(resolved, index, point, result,
                                   "simulated", wall)
            elif misses:
                import asyncio  # only here: see repro.exec.resolver

                self._pool_size = min(self.workers, len(misses))
                try:
                    asyncio.run(self._execute_all(misses, resolved))
                except BaseException:
                    self.shutdown(wait=False)  # drop the queued points
                    raise
                self.shutdown()
        finally:
            self.metrics.wall_s += _wall_clock() - start
        log.debug("engine run: %s", self.metrics.summary())
        return [resolved[point] for point in points]

    async def _execute_all(self, misses, resolved) -> None:
        """Execute the misses in the pool; the first failure propagates
        and ``asyncio.run`` cancels the rest."""
        import asyncio

        async def one(index, point):
            result, wall = await self.execute(point)
            self._resolved(resolved, index, point, result, "simulated",
                           wall)

        await asyncio.gather(*(one(index, point) for index, point in misses))

    def _resolved(self, resolved, index, point, result, source,
                  wall_s) -> None:
        resolved[point] = result
        if self.progress is not None:
            self.progress(PointOutcome(index, point, result, source,
                                       wall_s))


def run_points(points: Sequence[runner.DesignPoint],
               **engine_kwargs: Any) -> list[Any]:
    """One-shot engine run; results in input order."""
    return SweepEngine(**engine_kwargs).run(points)
