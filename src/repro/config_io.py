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
reader.

:func:`design_point_to_ini` writes the text ``ConfigParser.write``
would write for these sections, and :func:`design_point_from_ini`
reads exactly that dialect, in one pass:

* a line is blank, or a section header, or not indented;
* the headers are ``[design]``, ``[dram]``, ``[timing]`` and
  ``[system]``, each at column 0 and each at most once, in any order;
  there is no text ahead of the first one;
* in ``[design]``, each line is ``name = value``: one of the 16 options
  in :data:`_READERS`, in lower case, at most once, with its value as
  the writer writes it (``auto`` for ``None``, ``True``/``False`` for
  ``rowpress``; no padding, no ``%``);
* the lines of the three derived sections are not read.

Anything else (``[DEFAULT]`` or another section, comments, the ``:``
delimiter, indented or continuation lines, upper-case or padded names,
a duplicate option or section) raises ``ValueError`` naming the line
number and the line.
"""

from __future__ import annotations

from typing import Any

from .sim.runner import DesignPoint, build_config
from .units import to_ns


class IniError(ValueError):
    """An INI file that does not read back to a design point; the
    message names the file."""


def _sections(point: DesignPoint) -> dict[str, dict[str, str]]:
    """``{section: {option: value}}`` of a design point's INI."""
    config = build_config(point)
    dram = config.dram
    timing = dram.timing
    return {
        "design": {
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
        },
        "dram": {
            "subchannels": str(dram.subchannels),
            "banks_per_subchannel": str(dram.banks_per_subchannel),
            "rows_per_bank": str(dram.rows_per_bank),
            "row_bytes": str(dram.row_bytes),
            "line_bytes": str(dram.line_bytes),
            "mop_lines": str(dram.mop_lines),
            "chips_per_subchannel": str(dram.chips_per_subchannel),
        },
        "timing": {
            name.lower(): repr(to_ns(getattr(timing, name)))
            for name in ("tRCD", "tRP", "tRAS", "tRC", "tREFW", "tREFI",
                         "tRFC", "tCAS", "tBURST", "tRRD", "tFAW", "tWR")
        },
        "system": {
            "cores": str(config.cores),
            "core_ghz": repr(config.core_ghz),
            "issue_width": str(config.issue_width),
            "rob_entries": str(config.rob_entries),
            "llc_bytes": str(config.llc_bytes),
            "llc_ways": str(config.llc_ways),
        },
    }


def design_point_to_ini(point: DesignPoint) -> str:
    """Render a design point (and its derived config) as INI text."""
    return "".join(
        f"[{name}]\n"
        + "".join(f"{key} = {value}\n" for key, value in options.items())
        + "\n"
        for name, options in _sections(point).items())


def _auto(read):
    """``read``, with the value ``auto`` read as ``None``."""
    return lambda value: None if value == "auto" else read(value)


def _boolean(value: str) -> bool:
    """``True`` or ``False``, as ``str`` writes a bool."""
    if value not in ("True", "False"):
        raise ValueError(f"not True or False: {value!r}")
    return value == "True"


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

#: the header lines :func:`design_point_to_ini` writes
_HEADERS = ("[design]", "[dram]", "[timing]", "[system]")


def _refused(number: int, line: str, why: str) -> ValueError:
    return ValueError(f"line {number} {line!r}: {why}")


def _design_values(text: str) -> dict[str, Any]:
    """The ``[design]`` options of INI ``text``, each read by its
    :data:`_READERS` entry; raises ``ValueError`` naming the first line
    outside the dialect the module docstring lists."""
    values: dict[str, Any] = {}
    seen: set[str] = set()
    section = None
    for number, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        if line[0] == "[":
            if line not in _HEADERS:
                raise _refused(number, line, "not a section header of "
                               f"{', '.join(_HEADERS)}")
            if line in seen:
                raise _refused(number, line, f"a second {line} section")
            seen.add(line)
            section = line
        elif line[0].isspace():
            raise _refused(number, line, "an indented line")
        elif section is None:
            raise _refused(number, line, "text ahead of the first header")
        elif section == "[design]":
            name, delimiter, value = line.partition(" = ")
            if not delimiter:
                raise _refused(number, line, "not a 'name = value' line")
            if name not in _READERS:
                raise _refused(
                    number, line, f"unknown [design] option {name!r}; "
                    f"the options are {', '.join(_READERS)}")
            if name in values:
                raise _refused(number, line,
                               f"[design] option {name!r} set twice")
            if "%" in value or value != value.strip():
                raise _refused(number, line, "a padded value or a '%' "
                               "(values are read as written)")
            try:
                values[name] = _READERS[name](value)
            except ValueError as error:
                raise _refused(number, line, str(error)) from None
    if "[design]" not in seen:
        raise ValueError("missing [design] section")
    return values


def design_point_from_ini(text: str) -> DesignPoint:
    """Parse a ``[design]`` section back into a :class:`DesignPoint`.

    Raises ``ValueError`` for text outside the module's dialect (naming
    the line), a missing ``[design]`` section, workload or design, or a
    point :class:`DesignPoint` refuses.
    """
    values = _design_values(text)
    for required in ("workload", "design"):
        if required not in values:
            raise ValueError(f"missing [design] option {required!r}")
    return DesignPoint(**values)


def save_design_point(point: DesignPoint, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(design_point_to_ini(point))


def load_design_point(path: str) -> DesignPoint:
    """The design point of the INI at ``path``; raises :class:`IniError`
    naming the file when its text does not read back to one."""
    with open(path) as handle:
        text = handle.read()
    try:
        return design_point_from_ini(text)
    except ValueError as error:
        raise IniError(f"{path}: {error}") from None
