"""Observability self-check (``python -m repro.obs.selfcheck``).

Verifies the three contracts of the ``repro.obs`` layer on a small
ABO-heavy run (MoPAC-D under SRQ pressure, so ALERT/RFM traffic is
guaranteed):

1. **Determinism** — two fresh runs of the same design point produce
   bit-identical stats snapshots (wall-time phases are the only
   machine-dependent part of a result and are excluded by design).
2. **Zero perturbation** — running with the event tracer attached
   changes neither the IPCs nor a single stats-snapshot entry.
3. **Trace/stats agreement** — the traced ACT, ALERT, and RFM event
   counts equal the memory controllers' counters exactly, and the
   exported Chrome trace document is well-formed JSON with one record
   per buffered event.
4. **Spans** — installing a :class:`~repro.obs.spans.SpanTracer`
   perturbs nothing either (same IPCs, same stats snapshot), the span
   *structure* (ids, names, parent links) is deterministic across runs,
   and the Chrome-trace export round-trips.
5. **Daemon metrics** (skipped with ``--no-serve``) — a short-lived
   ``repro.serve`` daemon answers ``GET /metrics`` with parseable
   Prometheus text and buffers a ``serve.job`` span tree for a
   submitted job.

Exit status 0 on success; 1 with a diagnostic otherwise. CI runs this
via ``make obs-smoke``.
"""

from __future__ import annotations

import argparse
import json
import tempfile

from ..obs.log import configure, get_logger
from ..obs.spans import SpanTracer, install as install_spans, \
    uninstall as uninstall_spans
from ..obs.tracer import EventTracer

log = get_logger("repro.obs.selfcheck")

#: An ALERT-guaranteed point: every episode samples into a tiny SRQ.
ABO_POINT = dict(workload="hammer", design="mopac-d", trh=250,
                 instructions=12_000, rows_per_bank=128,
                 refresh_scale=1 / 256, p=1.0, srq_size=5,
                 drain_on_ref=0)


def run_selfcheck() -> int:
    from ..sim.runner import DesignPoint, run_point

    point = DesignPoint(**ABO_POINT)

    first = run_point(point)
    second = run_point(point)
    if first.stats != second.stats:
        diff = [k for k in first.stats
                if first.stats[k] != second.stats.get(k)]
        log.error("FAIL: stats snapshot not deterministic; differing "
                  "keys: %s", diff[:10])
        return 1
    log.info("determinism: %d snapshot entries bit-identical across "
             "two fresh runs", len(first.stats))

    tracer = EventTracer()
    traced = run_point(point, tracer=tracer)
    if traced.ipcs != first.ipcs or traced.stats != first.stats:
        log.error("FAIL: enabling the tracer perturbed the simulation")
        return 1
    log.info("zero perturbation: traced run matches untraced run")

    counts = tracer.counts()
    acts = sum(s.activations for s in traced.mc_stats)
    alerts = sum(s.alerts for s in traced.mc_stats)
    rfms = sum(s.rfm_commands for s in traced.mc_stats)
    checks = (("ACT", acts), ("ALERT", alerts), ("RFM", rfms))
    for kind, expected in checks:
        got = counts.get(kind, 0)
        if got != expected:
            log.error("FAIL: %d %s trace events but mc stats count %d",
                      got, kind, expected)
            return 1
    if alerts == 0:
        log.error("FAIL: the ABO point produced no ALERTs; the check "
                  "is vacuous")
        return 1
    log.info("trace/stats agreement: %d ACT, %d ALERT, %d RFM events "
             "match controller counters", acts, alerts, rfms)

    with tempfile.NamedTemporaryFile("w+", suffix=".json") as handle:
        written = tracer.to_chrome_trace(handle)
        handle.seek(0)
        document = json.load(handle)
    if written != len(tracer) or len(document["traceEvents"]) != written:
        log.error("FAIL: Chrome trace export lost events")
        return 1
    log.info("chrome trace export: %d events, %d dropped", written,
             tracer.dropped)

    if check_spans(point, first) != 0:
        return 1

    log.info("OK: observability self-check passed")
    return 0


def _span_structure(spans: SpanTracer) -> list[tuple[int, int | None, str]]:
    return [(record.span_id, record.parent_id, record.name)
            for record in spans.spans()]


def check_spans(point, baseline) -> int:
    """Step 4: span tracing is zero-perturbation and deterministic."""
    from ..sim.runner import run_point

    # the same run twice: the span structure (not its timestamps) must
    # be identical, and neither run may perturb the simulation
    structures = []
    for _ in range(2):
        spans = SpanTracer()
        token = install_spans(spans)
        try:
            result = run_point(point)
        finally:
            uninstall_spans(token)
        if result.ipcs != baseline.ipcs or result.stats != baseline.stats:
            log.error("FAIL: installing the span tracer perturbed the "
                      "simulation")
            return 1
        if not spans.spans("sim.run"):
            log.error("FAIL: no sim.run span recorded")
            return 1
        structures.append(_span_structure(spans))
    if structures[0] != structures[1]:
        log.error("FAIL: span structure not deterministic across runs: "
                  "%s vs %s", structures[0][:5], structures[1][:5])
        return 1

    with tempfile.NamedTemporaryFile("w+", suffix=".json") as handle:
        written = spans.to_chrome_trace(handle)
        handle.seek(0)
        document = json.load(handle)
    # one metadata record precedes the span events
    if len(document["traceEvents"]) != written \
            or written != len(spans.spans()) + 1:
        log.error("FAIL: span Chrome-trace export lost records")
        return 1
    log.info("spans: zero perturbation, %d-span structure identical "
             "across runs", len(spans.spans()))
    return 0


def check_serve_metrics() -> int:
    """Step 5: a live daemon serves Prometheus metrics and spans."""
    import pathlib

    from ..obs.exposition import parse_prometheus
    from ..serve import smoke
    from ..serve.client import ServeClient

    with tempfile.TemporaryDirectory(prefix="repro-obs-serve-") as root:
        state = pathlib.Path(root) / "state"
        address = f"unix:{pathlib.Path(root) / 'serve.sock'}"
        process = smoke.start_server(state, address, workers=2,
                                     max_jobs=2, drain_s=2.0)
        try:
            client = ServeClient(address)
            client.wait_ready()
            job_id = client.submit(smoke.smoke_points()[:2])
            client.wait(job_id, timeout_s=240.0)

            content_type, text = client.metrics_text()
            if "version=0.0.4" not in content_type:
                log.error("FAIL: /metrics content type %r is not the "
                          "Prometheus 0.0.4 exposition", content_type)
                return 1
            parsed = parse_prometheus(text)
            if parsed.get("repro_serve_jobs_completed", 0) < 1:
                log.error("FAIL: /metrics reports no completed jobs: %r",
                          {k: v for k, v in parsed.items()
                           if "jobs" in k})
                return 1
            spans = client.spans(name="serve.job")["spans"]
            if not any(s["attrs"].get("job_id") == job_id
                       for s in spans):
                log.error("FAIL: no serve.job span for %s", job_id)
                return 1
        finally:
            smoke.stop_server(process)
    log.info("daemon metrics: /metrics parses (%d samples) and the "
             "job span tree is buffered", len(parsed))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.selfcheck", description=__doc__.splitlines()[0])
    parser.add_argument("--quiet", action="store_true",
                        help="only report failures")
    parser.add_argument("--no-serve", action="store_true",
                        help="skip the live-daemon /metrics scrape "
                             "(steps 1-4 only)")
    args = parser.parse_args(argv)
    configure("warning" if args.quiet else None)
    status = run_selfcheck()
    if status == 0 and not args.no_serve:
        status = check_serve_metrics()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
