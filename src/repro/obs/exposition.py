"""Prometheus text exposition of a stats snapshot.

Converts the flat dotted-namespace snapshot a
:class:`~repro.obs.registry.StatsRegistry` produces into the Prometheus
text format (version 0.0.4): one ``repro_``-prefixed gauge per key,
with dots and other illegal characters folded to underscores. Every
metric is exposed as a gauge — the registry does not distinguish
counter semantics at the snapshot level, and scrapers can apply
``rate()`` regardless.

Also provides :func:`parse_prometheus`, a minimal parser used by the
tests and ``python -m repro.obs.top`` — proving the output round-trips through a
consumer that is not our own serialiser.
"""

from __future__ import annotations

import math
import re

#: Content-Type header of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(key: str, prefix: str = "repro_") -> str:
    """Fold a dotted snapshot key into a legal Prometheus metric name."""
    name = prefix + _ILLEGAL.sub("_", key)
    if name[0].isdigit():  # a bare numeric key with no prefix
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # defensive; snapshots reject bools
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def to_prometheus(snapshot: dict[str, float],
                  prefix: str = "repro_") -> str:
    """Render a flat snapshot as Prometheus text exposition.

    Keys are emitted sorted; colliding folded names (``a.b`` vs
    ``a_b``) keep the last value, which cannot happen with the
    registry's own namespaces.
    """
    lines: list[str] = []
    for key in sorted(snapshot):
        name = metric_name(key, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(snapshot[key])}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse text exposition back into ``{metric_name: value}``.

    Handles the subset :func:`to_prometheus` emits (no labels, no
    timestamps) plus blank lines and comments — enough to scrape any
    conforming exporter of unlabelled gauges.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        if not value:
            raise ValueError(f"bad exposition line {line!r}")
        out[name] = float(value)
    return out
