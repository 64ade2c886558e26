"""Configuration serialisation (artifact parity).

The paper's artifact generates DRAMsim3 ``.ini`` files with
``config_dramsim3/prac/make_ini.py`` and drives evaluations from them.
Our equivalent: any :class:`~repro.sim.runner.DesignPoint` (plus the
derived DRAM/system configuration) round-trips through the same INI
format, so experiment configurations are inspectable, diffable files
rather than Python snippets.

Sections:

* ``[design]`` — workload, design, T_RH and the mitigation knobs,
* ``[dram]``  — geometry, in the artifact's naming style,
* ``[timing]`` — the resolved base timing set in nanoseconds,
* ``[system]`` — core-side parameters.

Only ``[design]`` is read back: the other three sections are derived
from it by :func:`~repro.sim.runner.build_config` and written for the
reader, so :func:`design_point_from_ini` hands the parser just the
``[design]`` section (plus ``[DEFAULT]``, whose values every section
inherits) and never parses the derived ones.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import re

from .config import SystemConfig
from .sim.runner import DesignPoint, build_config
from .units import to_ns


def design_point_to_ini(point: DesignPoint) -> str:
    """Render a design point (and its derived config) as INI text."""
    config = build_config(point)
    parser = configparser.ConfigParser()
    parser["design"] = {
        "workload": point.workload,
        "design": point.design,
        "trh": str(point.trh),
        "instructions": str(point.instructions),
        "seed": str(point.seed),
        "page_policy": point.page_policy,
        "chips": str(point.chips),
        "srq_size": str(point.srq_size),
        "drain_on_ref": ("auto" if point.drain_on_ref is None
                         else str(point.drain_on_ref)),
        "p": "auto" if point.p is None else repr(point.p),
        "rows_per_bank": str(point.rows_per_bank),
        "refresh_scale": repr(point.refresh_scale),
        "rowpress": str(point.rowpress),
        "sampler": point.sampler,
        "abo_level": str(point.abo_level),
        "refresh_mode": point.refresh_mode,
    }
    dram = config.dram
    parser["dram"] = {
        "subchannels": str(dram.subchannels),
        "banks_per_subchannel": str(dram.banks_per_subchannel),
        "rows_per_bank": str(dram.rows_per_bank),
        "row_bytes": str(dram.row_bytes),
        "line_bytes": str(dram.line_bytes),
        "mop_lines": str(dram.mop_lines),
        "chips_per_subchannel": str(dram.chips_per_subchannel),
    }
    timing = dram.timing
    parser["timing"] = {
        name.lower(): repr(to_ns(getattr(timing, name)))
        for name in ("tRCD", "tRP", "tRAS", "tRC", "tREFW", "tREFI",
                     "tRFC", "tCAS", "tBURST", "tRRD", "tFAW", "tWR")
    }
    parser["system"] = {
        "cores": str(config.cores),
        "core_ghz": repr(config.core_ghz),
        "issue_width": str(config.issue_width),
        "rob_entries": str(config.rob_entries),
        "llc_bytes": str(config.llc_bytes),
        "llc_ways": str(config.llc_ways),
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


#: a section header as ConfigParser reads one: ``[name]`` at the start
#: of a line (an indented one may continue the option above it)
_HEADER = re.compile(r"^\[(.+)\]", re.M)

#: the sections :func:`design_point_from_ini` parses
_READ_SECTIONS = ("design", configparser.DEFAULTSECT)


def _design_sections(text: str) -> str:
    """The ``[design]`` and ``[DEFAULT]`` sections of INI ``text``.

    Each section runs from its header line to the next header line.
    Every ``[design]`` header is kept, so a second one still raises
    ``DuplicateSectionError`` when parsed.
    """
    headers = list(_HEADER.finditer(text))
    ends = [header.start() for header in headers[1:]] + [len(text)]
    return "".join(text[header.start():end]
                   for header, end in zip(headers, ends)
                   if header.group(1) in _READ_SECTIONS)


def design_point_from_ini(text: str) -> DesignPoint:
    """Parse a ``[design]`` section back into a :class:`DesignPoint`."""
    parser = configparser.ConfigParser()
    parser.read_string(_design_sections(text))
    if "design" not in parser:
        raise ValueError("missing [design] section")
    section = parser["design"]

    def opt_int(key: str):
        value = section.get(key, "auto")
        return None if value == "auto" else int(value)

    def opt_float(key: str):
        value = section.get(key, "auto")
        return None if value == "auto" else float(value)

    return DesignPoint(
        workload=section["workload"],
        design=section["design"],
        trh=section.getint("trh", 500),
        instructions=section.getint("instructions", 150_000),
        seed=section.getint("seed", 0x5EED),
        page_policy=section.get("page_policy", "open"),
        chips=section.getint("chips", 1),
        srq_size=section.getint("srq_size", 16),
        drain_on_ref=opt_int("drain_on_ref"),
        p=opt_float("p"),
        rows_per_bank=section.getint("rows_per_bank", 4096),
        refresh_scale=section.getfloat("refresh_scale", 1 / 64),
        rowpress=section.getboolean("rowpress", False),
        sampler=section.get("sampler", "mint"),
        abo_level=section.getint("abo_level", 1),
        refresh_mode=section.get("refresh_mode", "all-bank"),
    )


def save_design_point(point: DesignPoint, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(design_point_to_ini(point))


def load_design_point(path: str) -> DesignPoint:
    with open(path) as handle:
        return design_point_from_ini(handle.read())


def config_summary(config: SystemConfig) -> dict[str, str]:
    """Flat human-readable summary of a system configuration."""
    out = {
        "capacity": f"{config.dram.capacity_bytes / 2**30:.1f} GiB",
        "banks": str(config.dram.total_banks),
        "timing": config.dram.timing.name,
        "cores": str(config.cores),
    }
    for field in dataclasses.fields(config):
        if field.name != "dram":
            out[field.name] = str(getattr(config, field.name))
    return out
