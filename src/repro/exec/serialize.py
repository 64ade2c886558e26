"""JSON (de)serialisation of :class:`~repro.sim.system.SystemResult`.

The on-disk result cache (:mod:`repro.exec.cache`) stores one JSON
document per design point, opened by a header line that carries the
:func:`result_row` and a digest of the rest. The document carries
everything a :class:`SystemResult` holds — the resolved system
configuration and the flat stats snapshot (per-core, per-controller,
per-policy and run-level keys, the optional row-activity census among
them) — so a cache hit reconstructs a result that is indistinguishable
from a fresh simulation to every downstream consumer (weighted
speedup, energy model, table renderers). :func:`result_row`
reduces a result to the few fields a ``results.csv`` row needs.

``SCHEMA_VERSION`` is bumped whenever the document layout changes;
:func:`result_from_dict` rejects documents from other schema versions,
which the cache treats as a miss.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..config import DRAMConfig, SystemConfig
from ..dram.energy import energy_of, instructions_of
from ..dram.timing import TimingSet
from ..sim.system import SystemResult

#: Layout version of the serialized result document.
#: v2 added the observability fields (``stats`` snapshot, ``phases``).
#: v3 added the ``mitigation.*.security.*`` telemetry family to the
#: stats snapshot (drift histograms, PRE rates, max disturbance).
#: v4 split the cache entry into a first line holding ``schema``, the
#: ``sha256`` of the rest and the :func:`result_row` ``row``, then the
#: other members on the second line; still one JSON document.
#: v5 extended the header's ``sha256`` from the body to the row's JSON
#: text and the body, so a damaged row is a miss too.
#: v6 dropped ``phases``, the one wall-time member: an entry now holds
#: only what the simulation determines.
#: v7 dropped ``core_stats``, ``mc_stats``, ``policy_stats``,
#: ``elapsed_ps`` and ``row_activity``, each a copy of snapshot keys
#: (``core.{i}.*``, ``mc.{sc}.*``, ``mitigation.{sc}.*``, ``sim.*``):
#: a document is ``schema``, ``config`` and ``stats``.
SCHEMA_VERSION = 7


class SchemaMismatch(ValueError):
    """Document written under a different schema version.

    Subclasses ``ValueError`` so existing ``except ValueError`` cache
    paths keep treating it as a miss; carries the versions so tooling
    can report *which* layout was found.
    """

    def __init__(self, found: Any, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(
            f"result schema {found!r}, expected {expected}")


def result_to_dict(result: SystemResult) -> dict[str, Any]:
    """Flatten a result into a JSON-serialisable document."""
    return {
        "schema": SCHEMA_VERSION,
        "config": dataclasses.asdict(result.config),
        "stats": dict(result.stats),
    }


def result_row(result: SystemResult) -> dict[str, Any]:
    """The ``results.csv`` inputs of a result: one compact row document.

    Carries exactly what :func:`repro.tools.campaign.write_results_csv`
    reads, which is what the serve daemon's ``/result`` returns by
    default. Every field is an int, a float or a list of floats, so the
    document survives a JSON round trip bit for bit.
    """
    return {
        "ipcs": result.ipcs,
        "rbhr": result.row_buffer_hit_rate,
        "alerts": result.total_alerts,
        "requests": result.total_requests,
        "elapsed_ps": result.elapsed_ps,
        "instructions": instructions_of(result),
        "energy_mj": energy_of(result).total_mj,
    }


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``asdict`` form."""
    dram_data = dict(data["dram"])
    timing = TimingSet(**dram_data.pop("timing"))
    dram = DRAMConfig(timing=timing, **dram_data)
    system_data = {k: v for k, v in data.items() if k != "dram"}
    return SystemConfig(dram=dram, **system_data)


def result_from_dict(data: dict[str, Any]) -> SystemResult:
    """Inverse of :func:`result_to_dict`.

    Raises :class:`SchemaMismatch` (a ``ValueError``) on documents from
    another schema version and ``KeyError`` / ``TypeError`` on
    structurally broken documents; the cache maps all of those to a
    miss.
    """
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaMismatch(schema, SCHEMA_VERSION)
    return SystemResult(config=config_from_dict(data["config"]),
                        stats=dict(data["stats"]))
