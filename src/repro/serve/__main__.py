"""CLI entry point: ``python -m repro.serve`` runs the daemon.

Options::

    python -m repro.serve --state-dir .repro-serve \
        [--address unix:/path.sock | --address host:port] \
        [--workers N] [--max-jobs N] [--drain-s S] [--cache-dir DIR] \
        [--quiet]

The server runs until SIGTERM/SIGINT (or ``POST /shutdown``), drains
gracefully, and exits 0. Anything still queued stays in the journal
and resumes on the next start with the same ``--state-dir``.
"""

from __future__ import annotations

import argparse
import asyncio

from ..obs.log import configure, get_logger
from .server import ServeServer

log = get_logger("repro.serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Simulation-as-a-service daemon with a journaled "
                    "job queue (see docs/serving.md).")
    parser.add_argument("--state-dir", default=".repro-serve",
                        help="journal + default cache + default socket "
                             "directory (default: .repro-serve)")
    parser.add_argument("--address", default=None,
                        help="unix:/path.sock or host:port "
                             "(default: unix:<state-dir>/serve.sock)")
    parser.add_argument("--workers", type=int, default=None,
                        help="simulation worker processes "
                             "(default: REPRO_WORKERS or cpu count)")
    parser.add_argument("--max-jobs", type=int, default=4,
                        help="jobs dispatched concurrently (default: 4)")
    parser.add_argument("--drain-s", type=float, default=5.0,
                        help="grace period for running jobs on "
                             "shutdown (default: 5)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "REPRO_CACHE_DIR or <state-dir>/cache)")
    parser.add_argument("--quiet", action="store_true",
                        help="only log warnings")
    args = parser.parse_args(argv)
    configure("warning" if args.quiet else None)

    try:
        server = ServeServer(
            state_dir=args.state_dir, address=args.address,
            workers=args.workers, max_jobs=args.max_jobs,
            drain_s=args.drain_s, cache_dir=args.cache_dir)
    except ValueError as error:
        parser.error(str(error))
    try:
        return asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
