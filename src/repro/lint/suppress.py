"""Inline suppression comments: ``# repro: allow(<rule-id>) — reason``.

A suppression waives named rules on its own line and on the line
directly below it (so a comment can sit above a long statement). The
reason is **mandatory** — a waiver that cannot say why it exists is a
finding itself (the ``suppression-hygiene`` rule) — and stays in the
source as reviewable documentation:

    deadline = time.monotonic() + timeout_s  \
        # repro: allow(determinism) — client poll deadline, never in results

Multiple rules separate with commas: ``allow(determinism,env-discipline)``.
Only real comments count: the source is read with :mod:`tokenize`, so
the marker inside a string literal waives nothing.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize

#: Any comment claiming to speak the suppression protocol.
MARKER = re.compile(r"#\s*repro:\s*(?P<body>.*)$")

#: The well-formed body: allow(<ids>) <separator> <reason>.
ALLOW = re.compile(
    r"^allow\(\s*(?P<rules>[a-z0-9][a-z0-9,\s-]*)\)\s*"
    r"(?:—|--|:)?\s*(?P<reason>.*)$")


@dataclasses.dataclass
class Suppression:
    """One parsed ``allow`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    def covers(self, rule_id: str, line: int) -> bool:
        return rule_id in self.rules and line in (self.line, self.line + 1)


@dataclasses.dataclass(frozen=True)
class Malformed:
    """A ``# repro:`` comment that failed to parse, with the cause."""

    line: int
    problem: str


def _comments(lines: list[str]) -> list[tuple[int, str]]:
    """``(line, text)`` of every comment token in ``lines``; a source
    that stops tokenizing keeps the comments read before the error."""
    readline = io.StringIO("".join(f"{line}\n" for line in lines)).readline
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, SyntaxError):
        pass
    return comments


def scan(lines: list[str]) -> tuple[list[Suppression], list[Malformed]]:
    """Extract suppressions (and protocol misuse) from source comments."""
    found: list[Suppression] = []
    broken: list[Malformed] = []
    for lineno, text in _comments(lines):
        marker = MARKER.search(text)
        if marker is None:
            continue
        body = marker.group("body").strip()
        match = ALLOW.match(body)
        if match is None:
            broken.append(Malformed(
                lineno, f"cannot parse {body!r}: expected "
                        f"'allow(<rule-id>) — reason'"))
            continue
        rules = frozenset(part.strip()
                          for part in match.group("rules").split(",")
                          if part.strip())
        reason = match.group("reason").strip()
        if not rules:
            broken.append(Malformed(lineno, "allow() names no rules"))
            continue
        if not reason:
            broken.append(Malformed(
                lineno, "suppression carries no reason — say why the "
                        "waiver is sound"))
            continue
        found.append(Suppression(lineno, rules, reason))
    return found, broken


def covering(suppressions: list[Suppression], rule_id: str,
             line: int) -> Suppression | None:
    """The suppression waiving ``rule_id`` at ``line``, if any."""
    for suppression in suppressions:
        if suppression.covers(rule_id, line):
            return suppression
    return None
