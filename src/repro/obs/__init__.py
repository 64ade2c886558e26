"""Unified observability layer: stats registry, event tracer, logging.

``repro.obs`` is the one place the rest of the stack reports into:

* :class:`~repro.obs.registry.StatsRegistry` — hierarchical counters /
  gauges / histograms, snapshotted into every
  :class:`~repro.sim.system.SystemResult` under a stable dotted
  namespace (``mc.0.row_hits``, ``mitigation.rfm_events``, …);
* :class:`~repro.obs.tracer.EventTracer` — opt-in bounded ring buffer
  of ACT/PRE/REF/RFM/ALERT/DRAIN/MITIGATE events, exportable as JSONL
  and Chrome trace-event JSON (open it in Perfetto);
* :mod:`repro.obs.log` — stdlib logging under the ``repro`` namespace
  with a ``REPRO_LOG`` level knob.

Everything here is zero-cost when unused: tracing sites are guarded by
a single ``is not None`` check, stats snapshots are taken once per run
from the live dataclasses the simulator already maintains, and nothing
perturbs simulation behaviour or RNG streams.
"""

from .log import configure as configure_logging
from .log import get_logger
from .registry import Counter, Gauge, Histogram, StatsRegistry
from .tracer import EventTracer, TraceEvent, merge_events

__all__ = [
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "StatsRegistry",
    "TraceEvent",
    "configure_logging",
    "get_logger",
    "merge_events",
]
