"""The declared metric-name schema: one source of truth for namespaces.

Every dotted name registered into a :class:`~repro.obs.registry.StatsRegistry`
(or sampled into a :class:`~repro.obs.timeseries.SeriesBoard`) must fall
under one of the namespaces declared here. Three consumers keep the
schema honest:

* the ``stats-namespace`` lint rule (:mod:`repro.lint.rules.stats`)
  statically checks every registration site's name literal against
  :func:`matches` — a metric outside the schema fails ``make lint``;
* the namespace table in ``docs/observability.md`` is generated from
  :func:`render_table` between the :data:`BEGIN_MARK`/:data:`END_MARK`
  markers (``python -m repro.obs.schema --write`` refreshes it,
  ``--check`` and ``tests/obs/test_schema.py`` fail on drift);
* ``tests/obs/test_schema.py`` asserts every declared example actually
  matches its own namespace.

Names are stable API: renaming a key is a schema change (bump
``repro.exec.serialize.SCHEMA_VERSION``), and *adding* a namespace
means adding it here first — the docs and the linter then follow.

``{placeholder}`` segments (``mc.{sc}``) match any single concrete
segment; registration sites that compute a segment dynamically
(f-strings) are matched shape-wise, each interpolation standing for one
segment.
"""

from __future__ import annotations

import dataclasses

#: Doc markers delimiting the generated table in docs/observability.md.
BEGIN_MARK = ("<!-- namespace-table:begin — generated from "
              "src/repro/obs/schema.py; edit there and run "
              "`python -m repro.obs.schema --write` -->")
END_MARK = "<!-- namespace-table:end -->"


@dataclasses.dataclass(frozen=True)
class Namespace:
    """One declared dotted-prefix family of metric names."""

    #: dotted prefix template; ``{sc}``-style segments are wildcards
    prefix: str
    #: markdown "source" column: which component emits the family
    source: str
    #: markdown "examples" column: representative concrete names
    examples: str

    def segments(self) -> tuple[str, ...]:
        return tuple(self.prefix.split("."))


NAMESPACES: tuple[Namespace, ...] = (
    Namespace("mc.{sc}", "`MCStats` + derived",
              "`mc.0.row_hits`, `mc.0.rfm_commands`, "
              "`mc.0.row_buffer_hit_rate`, `mc.0.mean_read_latency_ns`"),
    Namespace("mc.{sc}.latency_ps",
              "read/write service latency `Histogram`",
              "`mc.0.latency_ps.count/mean/p50/p90/p99`"),
    Namespace("mc.{sc}.bank.{b}", "per-bank `BankStats`",
              "`mc.0.bank.7.activations`"),
    Namespace("mitigation.{sc}", "each policy's `stats.as_dict()`",
              "`mitigation.0.alerts`, `mitigation.1.srq_insertions`"),
    Namespace("mitigation.{sc}.security",
              "`SecurityTelemetry` (counting policies only)",
              "`mitigation.0.security.drift_max`, "
              "`mitigation.0.security.max_disturbance`, "
              "`mitigation.0.security.rfm_cadence.p99`"),
    Namespace("mitigation", "cross-subchannel aggregates",
              "`mitigation.rfm_events`, `mitigation.mitigations`, "
              "`mitigation.counter_updates`, `mitigation.ref_drains`"),
    Namespace("core.{id}", "`CoreStats`",
              "`core.0.instructions`, `core.3.ipc`"),
    Namespace("sim", "the run itself",
              "`sim.elapsed_ps`, `sim.fastforward_ps`, "
              "`sim.row_activity.*` (when collected)"),
    Namespace("serve",
              "the simulation daemon (`GET /stats`, see "
              "`docs/serving.md`) and its sampled series",
              "`serve.jobs_completed`, `serve.queue_depth`, "
              "`serve.job_latency_ms.p99`, `serve.pool.points_per_s`"),
    Namespace("exec.cache",
              "result-cache counters (`ResultCache.register_stats`)",
              "`exec.cache.hits`, `exec.cache.writes`"),
    Namespace("exec.resolve",
              "point-resolver counters, shared by `campaign run` and "
              "the daemon (`Resolver.register_stats`)",
              "`exec.resolve.dedup_hits`, `exec.resolve.simulated`, "
              "`exec.resolve.point_wall_ms.p99`"),
)


def _segment_matches(template: str, segment: str) -> bool:
    if template.startswith("{") and template.endswith("}"):
        return True
    return template == segment


def match(name: str) -> Namespace | None:
    """The namespace covering ``name`` (or a name *shape*), if any.

    ``name`` may be a concrete dotted name (``mc.0.row_hits``), a bare
    registration prefix (``serve``), or a shape with ``{}`` standing
    for dynamically formatted segments (``mc.{}``). A name is covered
    when some namespace's full prefix template matches its leading
    segments.
    """
    segments = name.split(".")
    best: Namespace | None = None
    for namespace in NAMESPACES:
        template = namespace.segments()
        if len(segments) < len(template):
            continue
        if all(_segment_matches(t, s)
               for t, s in zip(template, segments)):
            if best is None or len(template) > len(best.segments()):
                best = namespace
    return best


def matches(name: str) -> bool:
    return match(name) is not None


def render_table() -> str:
    """The docs/observability.md namespace table, rendered from here."""
    lines = ["| prefix | source | examples |", "|---|---|---|"]
    for namespace in NAMESPACES:
        shown = f"`{namespace.prefix}.*`"
        lines.append(f"| {shown} | {namespace.source} "
                     f"| {namespace.examples} |")
    return "\n".join(lines) + "\n"


def render_doc_section() -> str:
    """Markers plus table — the exact bytes the docs must carry."""
    return f"{BEGIN_MARK}\n{render_table()}{END_MARK}\n"


def doc_section_of(text: str) -> str | None:
    """Extract the generated section from a docs file's text."""
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0:
        return None
    return text[begin:end + len(END_MARK)] + "\n"


def main(argv: list[str] | None = None) -> int:
    """Print, check, or rewrite the generated docs table."""
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        prog="repro.obs.schema",
        description="Metric-namespace schema: render or sync the "
                    "docs/observability.md table.")
    parser.add_argument("--doc", type=pathlib.Path,
                        default=pathlib.Path("docs/observability.md"),
                        help="docs file carrying the generated table")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the docs table drifted")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the docs table in place")
    args = parser.parse_args(argv)

    if not args.check and not args.write:
        print(render_table(), end="")
        return 0
    text = args.doc.read_text(encoding="utf-8")
    current = doc_section_of(text)
    if current is None:
        print(f"{args.doc}: no {BEGIN_MARK!r} section")
        return 1
    expected = render_doc_section()
    if args.check:
        if current != expected:
            print(f"{args.doc}: namespace table drifted from "
                  f"repro.obs.schema — run python -m repro.obs.schema "
                  f"--write")
            return 1
        print(f"{args.doc}: namespace table in sync")
        return 0
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK) + len(END_MARK) + 1
    args.doc.write_text(text[:begin] + expected + text[end:],
                        encoding="utf-8")
    print(f"{args.doc}: namespace table rewritten")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
