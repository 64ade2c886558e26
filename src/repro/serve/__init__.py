"""Simulation-as-a-service: a local daemon over the sweep substrate.

``repro.serve`` puts the :mod:`repro.exec` resolver behind a shared,
long-running service so that every consumer (campaign CLI, experiment
drivers, benchmarks, ad-hoc scripts) stops owning its own process
pool: concurrent clients submitting overlapping work share one
execution per cache key, completed points short-circuit through the
on-disk result cache, and a JSONL journal makes the queue survive
crashes and restarts.

Public surface:

* :class:`~repro.serve.server.ServeServer` — the asyncio daemon
  (``python -m repro.serve`` runs it);
* :class:`~repro.serve.client.ServeClient` — blocking stdlib client
  (``campaign submit/status/fetch`` build on it);
* :mod:`repro.serve.jobs` — job model + journal;
* a job's points resolve in one pass of
  :class:`~repro.exec.resolver.Resolver` (dedup, cache, riders, crash
  retries), the pass ``campaign run`` uses;
* :mod:`repro.serve.protocol` — the HTTP/JSON wire format and the
  ``unix:/path`` / ``host:port`` address syntax.

``tests/serve`` pins the service contracts (dedup, restart resume,
bit-identity with ``campaign run`` on a real daemon). See
``docs/serving.md`` for the API and failure semantics.
"""

from ..exec.resolver import PointFailed
from .client import ServeClient, ServeError
from .jobs import Job, Journal
from .server import ServeServer

__all__ = [
    "Job",
    "Journal",
    "PointFailed",
    "ServeClient",
    "ServeError",
    "ServeServer",
]
