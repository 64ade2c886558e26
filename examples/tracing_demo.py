#!/usr/bin/env python3
"""Event-tracing demo: record a Rowhammer-ish run, export a Chrome trace.

Runs the ``hammer`` workload against MoPAC-D with a deliberately tiny
SRQ (every activation episode samples into it), so the run produces
real ABO ALERT/RFM traffic. The opt-in :class:`repro.obs.EventTracer`
records every ACT / PRE / REF / ALERT / RFM / DRAIN / MITIGATE event;
the demo then

* prints the per-kind event tally,
* cross-checks the traced RFM/ALERT counts against the memory
  controllers' stats counters,
* exports both a JSONL dump and a Chrome trace-event JSON you can open
  at https://ui.perfetto.dev (sub-channels appear as processes, banks
  as threads).

Run:  python examples/tracing_demo.py [--out trace.json] [--jsonl trace.jsonl]
"""

import argparse
import json
import sys
import tempfile

from repro.obs import EventTracer
from repro.sim.runner import DesignPoint, run_point

#: SRQ-pressure point: p=1.0 forces every episode into the 5-entry SRQ.
POINT = DesignPoint(workload="hammer", design="mopac-d", trh=250,
                    instructions=12_000, rows_per_bank=128,
                    refresh_scale=1 / 256, p=1.0, srq_size=5,
                    drain_on_ref=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--out", default=None,
                        help="Chrome trace output path "
                             "(default: a temporary file)")
    parser.add_argument("--jsonl", default=None,
                        help="also write a JSONL event dump here")
    args = parser.parse_args(argv)

    tracer = EventTracer()
    result = run_point(POINT, tracer=tracer)

    counts = tracer.counts()
    print(f"run: {result.summary()}")
    print("events:", " ".join(f"{kind}={counts.get(kind, 0)}"
                              for kind in ("ACT", "PRE", "REF", "ALERT",
                                           "RFM", "DRAIN", "MITIGATE")))

    alerts = counts.get("ALERT", 0)
    if alerts == 0:
        print("ERROR: expected ALERT events in the trace", file=sys.stderr)
        return 1
    rfm_stats = result.total("rfm_commands")
    if counts.get("RFM", 0) != rfm_stats:
        print(f"ERROR: {counts.get('RFM', 0)} RFM trace events but the "
              f"controllers count {rfm_stats}", file=sys.stderr)
        return 1
    print(f"traced RFM events match controller stats ({rfm_stats})")

    out = args.out or tempfile.mkstemp(suffix=".trace.json",
                                       prefix="mopac-")[1]
    written = tracer.to_chrome_trace(out)
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    assert len(document["traceEvents"]) == written
    print(f"wrote {written} events to {out} (open in Perfetto)")
    if args.jsonl:
        lines = tracer.to_jsonl(args.jsonl)
        print(f"wrote {lines} JSONL events to {args.jsonl}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
