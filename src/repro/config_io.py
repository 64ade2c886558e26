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
reader, so :func:`design_point_from_ini` reads just the ``[design]``
section (plus ``[DEFAULT]``, whose values every section inherits) and
never parses the derived ones.

It reads them in one pass, in ``ConfigParser``'s default dialect, and
gives the values (or raises the ``configparser`` error) that
``ConfigParser.read_string`` of the whole text gives for them; an
error inside a derived section is not seen:

* a line that begins with ``[name]`` opens section ``name``; the
  lines ahead of the first such line may only be blank or comments
  (else ``MissingSectionHeaderError``);
* ``name = value`` and ``name: value`` both set an option; the name is
  stripped and lower-cased, the value stripped; a line with neither
  delimiter is a ``ParsingError``;
* a line whose first non-blank character is ``#`` or ``;`` is a
  comment; there are no inline comments;
* a line indented deeper than the option above it continues that
  option's value, and so does a blank line inside a value;
* a second ``[design]`` header, or an option set twice in one section,
  raises ``DuplicateSectionError`` / ``DuplicateOptionError``;
* ``[design]`` inherits every ``[DEFAULT]`` option it does not set;
* ``%%`` and ``%(name)s`` are resolved as ``BasicInterpolation``
  resolves them, with its errors.

Every option must be one :func:`design_point_to_ini` writes: any other
one, set in ``[design]`` or inherited from ``[DEFAULT]``, raises
``ValueError`` naming it.
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

#: the sections :func:`design_point_from_ini` reads
_READ_SECTIONS = ("design", configparser.DEFAULTSECT)

#: ConfigParser's own header and ``name = value`` line patterns (default
#: delimiters ``=`` and ``:``), matched against a stripped line
_SECTION = configparser.RawConfigParser.SECTCRE
_OPTION = configparser.RawConfigParser.OPTCRE

#: a ``%(name)s`` reference, as BasicInterpolation finds one
_REFERENCE = re.compile(r"%\(([^)]+)\)s")

#: the source name ConfigParser's errors give text it read from a string
_SOURCE = "<string>"


def _design_sections(text: str) -> list[tuple[int, str]]:
    """The lines ahead of the first header, then the ``[design]`` and
    ``[DEFAULT]`` sections of INI ``text``, each as ``(line number of
    its first line, its text)``.

    Each section runs from its header line to the next header line.
    Every ``[design]`` header is kept, so a second one still raises
    ``DuplicateSectionError``, and so are the lines ahead of the first
    header, where anything but a comment raises
    ``MissingSectionHeaderError``.
    """
    headers = list(_HEADER.finditer(text))
    starts = [header.start() for header in headers]
    chunks = [(1, text[:starts[0]] if starts else text)]
    ends = starts[1:] + [len(text)]
    for header, start, end in zip(headers, starts, ends):
        if header.group(1) in _READ_SECTIONS:
            chunks.append((text.count("\n", 0, start) + 1,
                           text[start:end]))
    return chunks


def _design_options(text: str) -> dict[str, str]:
    """The options of ``[design]``, then the ``[DEFAULT]`` options it
    does not set, with their values resolved: what
    ``dict(parser["design"])`` gives after ``parser.read_string(text)``
    on a ``ConfigParser()``, raising what those raise for ``[design]``,
    ``[DEFAULT]`` and the lines ahead of the first header.

    One pass over the lines of :func:`_design_sections`, as
    ``ConfigParser`` reads them in its strict default dialect.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    defaults: dict[str, list[str]] = {}
    added: set[tuple[str, str]] = set()
    section: dict[str, list[str]] | None = None
    name = option = None
    indent_level = 0
    error = None
    for first, chunk in _design_sections(text):
        for number, line in enumerate(chunk.split("\n"), first):
            value = line.strip()
            if not value or value[0] in "#;":
                if not value and option:  # a blank line inside a value
                    section[option].append("")
                continue
            indent = len(line) - len(line.lstrip())
            if option and indent > indent_level:  # continuation line
                section[option].append(value)
                continue
            indent_level = indent
            header = _SECTION.match(value)
            if header:
                name = header.group("header")
                if name == configparser.DEFAULTSECT:
                    section = defaults
                elif name in sections:
                    raise configparser.DuplicateSectionError(
                        name, _SOURCE, number)
                else:
                    section = sections[name] = {}
                option = None
            elif section is None:
                raise configparser.MissingSectionHeaderError(
                    _SOURCE, number, line)
            else:
                match = _OPTION.match(value)
                if match is None or not match.group("option"):
                    # reported after the whole text, like ConfigParser
                    error = error or configparser.ParsingError(_SOURCE)
                    error.append(number, repr(line))
                if match is not None:
                    option = match.group("option").rstrip().lower()
                    if (name, option) in added:
                        raise configparser.DuplicateOptionError(
                            name, option, _SOURCE, number)
                    added.add((name, option))
                    section[option] = [match.group("value").strip()]
    if error is not None:
        raise error
    if "design" not in sections:
        raise ValueError("missing [design] section")
    design = sections["design"]
    inherited = {key: parts for key, parts in defaults.items()
                 if key not in design}
    raw = {key: "\n".join(parts).rstrip()
           for key, parts in {**design, **inherited}.items()}
    return {key: _interpolate(key, value, raw) if "%" in value else value
            for key, value in raw.items()}


def _interpolate(option: str, value: str, options: dict[str, str],
                 depth: int = 1) -> str:
    """``value`` with its ``%%`` and ``%(name)s`` references resolved
    against ``options``, exactly as ``configparser.BasicInterpolation``
    resolves ``option`` of ``[design]``, raising what it raises."""
    if depth > configparser.MAX_INTERPOLATION_DEPTH:
        raise configparser.InterpolationDepthError(
            option, "design", options[option])
    out = []
    rest = value
    while rest:
        at = rest.find("%")
        if at < 0:
            out.append(rest)
            break
        out.append(rest[:at])
        rest = rest[at:]
        if rest[1:2] == "%":
            out.append("%")
            rest = rest[2:]
        elif rest[1:2] == "(":
            match = _REFERENCE.match(rest)
            if match is None:
                raise configparser.InterpolationSyntaxError(
                    option, "design",
                    f"bad interpolation variable reference {rest!r}")
            reference = match.group(1).lower()
            rest = rest[match.end():]
            if reference not in options:
                raise configparser.InterpolationMissingOptionError(
                    option, "design", options[option], reference)
            target = options[reference]
            out.append(_interpolate(option, target, options, depth + 1)
                       if "%" in target else target)
        else:
            raise configparser.InterpolationSyntaxError(
                option, "design",
                f"'%' must be followed by '%' or '(', found: {rest!r}")
    return "".join(out)


def _auto(read):
    """``read``, with the value ``auto`` read as ``None``."""
    return lambda value: None if value == "auto" else read(value)


def _boolean(value: str) -> bool:
    """A boolean as ``ConfigParser.getboolean`` reads one."""
    try:
        return configparser.RawConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {value}") from None


#: every option :func:`design_point_to_ini` writes to ``[design]``, in
#: DesignPoint field order, with how its value is read; an option left
#: out takes the DesignPoint field default
_READERS = {
    "workload": str, "design": str, "trh": int, "instructions": int,
    "seed": int, "page_policy": str, "chips": int, "srq_size": int,
    "drain_on_ref": _auto(int), "p": _auto(float),
    "rows_per_bank": int, "refresh_scale": float, "rowpress": _boolean,
    "sampler": str, "abo_level": int, "refresh_mode": str,
}


def design_point_from_ini(text: str) -> DesignPoint:
    """Parse a ``[design]`` section back into a :class:`DesignPoint`.

    Raises the ``configparser`` error ``ConfigParser`` raises for a
    malformed ``[design]`` or ``[DEFAULT]``, ``ValueError`` for a
    missing ``[design]``, an option outside :data:`_READERS`, or a value
    its field does not take, and ``KeyError`` without a workload or a
    design.
    """
    values = _design_options(text)
    unknown = [key for key in values if key not in _READERS]
    if unknown:
        raise ValueError(
            f"unknown [design] option(s) {', '.join(map(repr, unknown))}; "
            f"the options are {', '.join(_READERS)}")
    for required in ("workload", "design"):
        if required not in values:
            raise KeyError(required)
    return DesignPoint(**{key: read(values[key])
                          for key, read in _READERS.items()
                          if key in values})


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
