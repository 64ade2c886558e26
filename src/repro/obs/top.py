"""``python -m repro.obs.top`` — live terminal view of a serve daemon.

Polls ``GET /metrics?format=json`` on the daemon address and renders a
compact dashboard: queue/running/in-flight gauges, cache and dedup
effectiveness, throughput with sparkline trends from the daemon's
sampled time-series rings, job latency percentiles, and a campaign
progress line with an ETA extrapolated from the recent completion
rate.

The renderer is a pure function over the ``/metrics`` JSON document
(``render()``), so it is unit-testable without a daemon; ``main()``
adds the polling loop, screen clearing, and ``--once`` mode::

    python -m repro.obs.top --address unix:/tmp/serve/serve.sock
    python -m repro.obs.top --address 127.0.0.1:8731 --once
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

#: Eight-level block characters for the series sparklines.
SPARK_CHARS = " ▁▂▃▄▅▆▇█"

#: ANSI clear-screen + cursor-home, written before each refresh.
CLEAR = "\x1b[2J\x1b[H"


def sparkline(values: list[float], width: int = 24) -> str:
    """Render the last ``width`` values as a block-character strip."""
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    low, high = min(tail), max(tail)
    if high <= low:
        return SPARK_CHARS[1] * len(tail)
    scale = (len(SPARK_CHARS) - 2) / (high - low)
    return "".join(SPARK_CHARS[1 + round((v - low) * scale)]
                   for v in tail)


def _series_values(doc: dict[str, Any], name: str) -> list[float]:
    series = doc.get("series", {}).get("series", {})
    return list(series.get(name, {}).get("values", []))


def _latest(doc: dict[str, Any], name: str, default: float = 0.0) -> float:
    values = _series_values(doc, name)
    return values[-1] if values else default


def _stat(doc: dict[str, Any], key: str, default: float = 0.0) -> float:
    return doc.get("stats", {}).get(key, default)


def eta_s(doc: dict[str, Any]) -> float | None:
    """Seconds until the queue drains at the recent completion rate."""
    outstanding = _stat(doc, "serve.queue_depth") \
        + _stat(doc, "serve.jobs_running")
    if outstanding <= 0:
        return 0.0
    rates = [v for v in _series_values(doc, "serve.jobs_per_s") if v > 0]
    if not rates:
        return None  # nothing completed recently: no basis to guess
    recent = rates[-5:]
    return outstanding / (sum(recent) / len(recent))


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render(doc: dict[str, Any], address: str = "") -> str:
    """Format one ``/metrics?format=json`` document as a dashboard."""
    stats = doc.get("stats", {})
    queued = _stat(doc, "serve.queue_depth")
    running = _stat(doc, "serve.jobs_running")
    completed = _stat(doc, "serve.jobs_completed")
    failed = _stat(doc, "serve.jobs_failed")
    known = _stat(doc, "serve.jobs_known")
    inflight = _stat(doc, "serve.pool.inflight_points")
    workers = _stat(doc, "serve.pool.workers")
    dedup = _stat(doc, "exec.resolve.dedup_hits")
    hit_rate = _latest(doc, "serve.pool.cache_hit_rate")
    jobs_rate = _latest(doc, "serve.jobs_per_s")
    points_rate = _latest(doc, "serve.pool.points_per_s")
    p50 = _stat(doc, "serve.job_latency_ms.p50")
    p99 = _stat(doc, "serve.job_latency_ms.p99")
    terminal = completed + failed + stats.get("serve.jobs_cancelled", 0)
    progress = f"{terminal:.0f}/{known:.0f}" if known else "0/0"

    queue_trend = sparkline(_series_values(doc, "serve.queue_depth"))
    rate_trend = sparkline(_series_values(doc, "serve.pool.points_per_s"))
    lines = [
        f"repro.serve {address}".rstrip(),
        f"jobs    queued {queued:.0f}  running {running:.0f}  "
        f"done {completed:.0f}  failed {failed:.0f}",
        f"points  inflight {inflight:.0f}  workers {workers:.0f}  "
        f"dedup {dedup:.0f}  cache-hit {hit_rate * 100:.0f}%",
        f"rate    {jobs_rate:.2f} jobs/s  {points_rate:.2f} points/s  "
        f"latency p50 {p50:.0f}ms p99 {p99:.0f}ms",
        f"queue    {queue_trend}",
        f"points/s {rate_trend}",
        f"campaign {progress} jobs terminal, ETA {_fmt_eta(eta_s(doc))}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.top",
        description="Live terminal dashboard for a repro.serve daemon "
                    "(polls GET /metrics?format=json).")
    parser.add_argument("--address", required=True,
                        help="daemon address (unix:/path.sock or "
                             "host:port)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll interval in seconds (default: 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (no screen "
                             "clearing)")
    args = parser.parse_args(argv)

    from ..serve.client import ServeClient
    client = ServeClient(args.address)
    try:
        while True:
            try:
                doc = client.metrics()
            except OSError as error:
                print(f"repro.obs.top: {args.address} unreachable "
                      f"({error})", file=sys.stderr)
                return 1
            frame = render(doc, address=args.address)
            if args.once:
                print(frame)
                return 0
            sys.stdout.write(CLEAR + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
