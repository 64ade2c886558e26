"""Strict parsing of ``REPRO_*`` environment knobs.

Every knob the execution layer reads from the environment goes through
these helpers so that a typo'd value fails loudly at startup instead of
silently misbehaving (the historical failure modes: ``REPRO_WORKERS=0``
was clamped to 1 without a word, and a boolean knob set to ``0``
counted as *on* because any non-empty string was truthy).

Rules:

* unset or empty-string variables mean "use the default",
* integers must parse and respect their lower bound,
* flags accept ``1/0``, ``true/false``, ``yes/no``, ``on/off``
  (case-insensitive); anything else is an error.

All failures raise :class:`EnvKnobError` (a ``ValueError``) whose
message names the variable and the offending value.
"""

from __future__ import annotations

import os

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


class EnvKnobError(ValueError):
    """An environment knob holds a value that cannot be parsed."""

    def __init__(self, name: str, value: str, expected: str):
        self.name = name
        self.value = value
        super().__init__(
            f"{name}={value!r}: expected {expected}")


def env_int(name: str, default: int | None = None,
            minimum: int = 1) -> int | None:
    """Integer knob ``name``; ``default`` when unset/empty.

    Rejects non-integers and values below ``minimum`` with an
    :class:`EnvKnobError` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise EnvKnobError(name, raw, "an integer") from None
    if value < minimum:
        raise EnvKnobError(name, raw, f"an integer >= {minimum}")
    return value


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean knob ``name``; ``default`` when unset/empty.

    ``1/true/yes/on`` enable, ``0/false/no/off`` disable
    (case-insensitive); anything else raises :class:`EnvKnobError`.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise EnvKnobError(name, raw, "a boolean (1/0, true/false, "
                                  "yes/no, on/off)")


def env_float(name: str, default: float | None = None,
              minimum: float | None = None,
              exclusive: bool = False) -> float | None:
    """Float knob ``name``; ``default`` when unset/empty.

    Rejects non-floats, NaN/inf, and values below ``minimum`` (strictly
    below when ``exclusive`` — e.g. a timeout that must be positive)
    with an :class:`EnvKnobError` naming the variable.
    """
    import math

    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise EnvKnobError(name, raw, "a number") from None
    if not math.isfinite(value):
        raise EnvKnobError(name, raw, "a finite number")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise EnvKnobError(name, raw, f"a number > {minimum:g}")
        if not exclusive and value < minimum:
            raise EnvKnobError(name, raw, f"a number >= {minimum:g}")
    return value


def env_str(name: str, default: str | None = None) -> str | None:
    """Free-form string knob ``name``; ``default`` when unset/empty.

    Whitespace-only values count as unset (a stray ``REPRO_CACHE_DIR=" "``
    must not create a directory named ``" "``). This is the one
    unvalidated shape — paths and salts — so every such knob still has
    a single, greppable access point here.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip()


def set_knob(name: str, value: str) -> None:
    """Set a ``REPRO_*`` knob for this process and its children.

    The only sanctioned environment *write* (the env-discipline lint
    rule bans raw ``os.environ`` mutation): tools that accept a CLI
    override (``campaign --cache-dir``) publish it to worker processes
    through here, keeping the knob namespace in one place.
    """
    if not name.startswith("REPRO_"):
        raise ValueError(f"refusing to set non-REPRO_* variable {name!r}")
    os.environ[name] = value


def env_choice(name: str, choices: tuple[str, ...],
               default: str) -> str:
    """Enumerated knob ``name``; ``default`` when unset/empty.

    The value is case-insensitive; anything outside ``choices`` raises
    :class:`EnvKnobError` naming the variable and the valid values.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value not in choices:
        raise EnvKnobError(name, raw, "one of " + "/".join(choices))
    return value
