"""Request-scoped spans: context-propagated wall-time intervals.

Where :mod:`repro.obs.tracer` records *simulated* DRAM events on the
picosecond clock, this module records *wall-clock* intervals of the
serving and execution stack — one job's submit → queue → dedup/cache
lookup → pool execute → cache write → reply lifecycle — into a bounded
ring, exportable as Chrome trace-event JSON so Perfetto renders the job
tree, optionally alongside the DRAM event trace.

Design rules (mirroring the PR 2 tracer):

* **zero perturbation when disabled** — :func:`span` is a no-op context
  manager unless a :class:`SpanTracer` has been :func:`install`\\ ed in
  the current :mod:`contextvars` context: no clock reads, no
  allocations beyond the context-manager object, and never any RNG, so
  a spans-off run is bit-identical to one before this module existed,
  and a spans-on run is too (``tests/obs/test_integration.py`` proves
  it);
* **deterministic ids** — span ids come from a plain
  ``itertools.count`` private to each tracer, independent of
  :mod:`repro.rng` and of wall time, so the *structure* of a trace
  (ids, names, parent links) is reproducible even though the
  timestamps are wall-clock;
* **context propagation** — the active span lives in a context
  variable; asyncio tasks copy the context at creation, so a span
  entered before ``asyncio.gather(...)`` is the parent of every span
  opened inside the gathered coroutines, across await boundaries,
  without threading any argument through the call graph.

Usage::

    tracer = SpanTracer()
    token = install(tracer)
    with span("serve.execute", job_id="job-1"):
        with span("serve.cache_lookup", key=key):
            ...
    uninstall(token)
    tracer.to_chrome_trace("job.trace.json")
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import json
import time
from typing import IO, Any, Iterable

#: Default ring capacity: a few thousand jobs' worth of lifecycle spans.
DEFAULT_CAPACITY = 65_536

_tracer_var: contextvars.ContextVar["SpanTracer | None"] = \
    contextvars.ContextVar("repro_span_tracer", default=None)
_span_var: contextvars.ContextVar["Span | None"] = \
    contextvars.ContextVar("repro_active_span", default=None)


class Span:
    """One recorded interval; ``end_ns`` is None while the span is open."""

    __slots__ = ("span_id", "parent_id", "name", "start_ns", "end_ns",
                 "attrs")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 start_ns: int, attrs: dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns: int | None = None
        self.attrs = attrs

    @property
    def duration_ns(self) -> int:
        """Span length; 0 while still open."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.span_id}, {self.name!r}, "
                f"parent={self.parent_id}, dur={self.duration_ns}ns)")


class SpanTracer:
    """Bounded ring of spans with deterministic counter ids."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock=time.perf_counter_ns):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.clock = clock
        self._ids = itertools.count(1)
        self._ring: collections.deque[Span] = \
            collections.deque(maxlen=capacity)
        self.dropped = 0

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, parent_id: int | None = None,
              **attrs: Any) -> Span:
        """Open a span now; the caller must :meth:`end` it."""
        record = Span(next(self._ids), parent_id, name, self.clock(), attrs)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        return record

    def end(self, record: Span) -> Span:
        record.end_ns = self.clock()
        return record

    def record(self, name: str, start_ns: int, end_ns: int,
               parent_id: int | None = None, **attrs: Any) -> Span:
        """Record a span retroactively from known timestamps.

        Used for intervals only observable after the fact, e.g. a job's
        queue wait (submit time to dispatch time).
        """
        record = Span(next(self._ids), parent_id, name, start_ns, attrs)
        record.end_ns = end_ns
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        return record

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # -- queries -----------------------------------------------------------
    def spans(self, name: str | None = None) -> list[Span]:
        """Buffered spans in begin order, optionally one name."""
        if name is None:
            return list(self._ring)
        return [record for record in self._ring if record.name == name]

    def find(self, **attrs: Any) -> list[Span]:
        """Spans whose attributes include every given key/value."""
        return [record for record in self._ring
                if all(record.attrs.get(k) == v for k, v in attrs.items())]

    def children(self, span_id: int) -> list[Span]:
        return [record for record in self._ring
                if record.parent_id == span_id]

    def tree(self, root: Span) -> dict[str, Any]:
        """Nested ``{name, span, children: [...]}`` view under ``root``."""
        return {
            "name": root.name,
            "span": root,
            "children": [self.tree(child)
                         for child in self.children(root.span_id)],
        }

    # -- export ------------------------------------------------------------
    def to_jsonl(self, destination: str | IO[str]) -> int:
        """One JSON object per span; returns the span count."""
        def write(handle: IO[str]) -> int:
            written = 0
            for record in self._ring:
                handle.write(json.dumps(record.as_dict()) + "\n")
                written += 1
            return written
        return _with_handle(destination, write)

    def to_chrome_trace(self, destination: str | IO[str],
                        dram_tracer=None) -> int:
        """Write Chrome trace-event JSON (complete ``"X"`` events).

        Each root span's tree renders on its own ``tid`` (the root's
        span id), so concurrent jobs get separate swim-lanes. Open
        spans export with their duration so far.

        ``dram_tracer`` (an :class:`~repro.obs.tracer.EventTracer`)
        merges the simulated DRAM events into the same document under
        a separate process id. Note the time bases differ — spans are
        wall-clock nanoseconds since an arbitrary origin, DRAM events
        are simulated picoseconds since run start — so the combined
        view juxtaposes rather than aligns the two timelines.
        """
        def write(handle: IO[str]) -> int:
            events = self._chrome_events()
            if dram_tracer is not None:
                events.extend(_dram_chrome_events(dram_tracer))
            document = {
                "traceEvents": events,
                "displayTimeUnit": "ns",
                "otherData": {"dropped": self.dropped,
                              "source": "repro.obs.spans"},
            }
            json.dump(document, handle)
            return len(events)
        return _with_handle(destination, write)

    def _chrome_events(self) -> list[dict]:
        roots = _root_ids(self._ring)
        fallback = self.clock()
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": "repro.spans"},
        }]
        for record in self._ring:
            end = record.end_ns if record.end_ns is not None else fallback
            args = dict(record.attrs)
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            events.append({
                "name": record.name,
                "ph": "X",
                "ts": record.start_ns / 1000.0,  # ns -> us
                "dur": max(end - record.start_ns, 0) / 1000.0,
                "pid": 0,
                "tid": roots.get(record.span_id, record.span_id),
                "args": args,
            })
        return events


def _root_ids(spans: Iterable[Span]) -> dict[int, int]:
    """Map each span id to the id of its tree root (for tid grouping).

    A parent evicted from the ring (or recorded out of order) makes the
    orphan its own root — the trace stays renderable either way.
    """
    by_id = {record.span_id: record for record in spans}
    roots: dict[int, int] = {}

    def resolve(span_id: int) -> int:
        if span_id in roots:
            return roots[span_id]
        record = by_id.get(span_id)
        if record is None or record.parent_id is None:
            roots[span_id] = span_id
        else:
            roots[span_id] = resolve(record.parent_id)
        return roots[span_id]

    for record in by_id:
        resolve(record)
    return roots


def _dram_chrome_events(tracer) -> list[dict]:
    """DRAM tracer events under pid 1000 + subchannel (spans own pid 0)."""
    events: list[dict] = []
    for event in tracer.events():
        args: dict[str, Any] = {"row": event.row}
        if event.cause:
            args["cause"] = event.cause
        events.append({
            "name": event.kind,
            "ph": "i",
            "s": "t",
            "ts": event.time_ps / 1e6,  # ps -> us
            "pid": 1000 + max(event.subchannel, 0),
            "tid": max(event.bank, 0),
            "args": args,
        })
    return events


def _with_handle(destination: str | IO[str], writer) -> int:
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return writer(handle)
    return writer(destination)


# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------
def install(tracer: SpanTracer | None) -> contextvars.Token:
    """Make ``tracer`` the current context's span sink; returns a token."""
    return _tracer_var.set(tracer)


def uninstall(token: contextvars.Token) -> None:
    _tracer_var.reset(token)


def current_tracer() -> SpanTracer | None:
    return _tracer_var.get()


def current_span() -> Span | None:
    return _span_var.get()


class span:
    """Context manager opening a child of the context's active span.

    No-op (yields ``None``, reads no clock) when no tracer is installed
    — the zero-perturbation guarantee. ``parent`` overrides the
    context-derived parent span (pass a :class:`Span` or ``None`` for
    an explicit root).
    """

    _UNSET = object()

    __slots__ = ("name", "attrs", "parent", "_span", "_tracer", "_token")

    def __init__(self, name: str, parent: Any = _UNSET, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self._span: Span | None = None
        self._tracer: SpanTracer | None = None
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Span | None:
        tracer = _tracer_var.get()
        if tracer is None:
            return None
        if self.parent is span._UNSET:
            parent = _span_var.get()
        else:
            parent = self.parent
        parent_id = parent.span_id if parent is not None else None
        self._tracer = tracer
        self._span = tracer.begin(self.name, parent_id, **self.attrs)
        self._token = _span_var.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._tracer is not None:
            _span_var.reset(self._token)
            self._tracer.end(self._span)
        return False
