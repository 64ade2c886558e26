"""Rule model and registry for the invariant linter.

A :class:`Rule` bundles an id, a visitor (or a repo-level check), and
a fix-hint. Rules register themselves into a module-level
registry at import time (:mod:`repro.lint.rules` imports every rule
module), mirroring how :mod:`repro.mitigations.registry` discovers
designs: the engine, the CLI, the fixture-corpus tests, and the docs
catalog all iterate :func:`all_rules` instead of hard-coding lists.

Two rule shapes coexist:

* **file rules** (:class:`AstRule`) — an :class:`ast.NodeVisitor`
  subclass run over every in-scope file's tree;
* **repo rules** — override :meth:`Rule.check_repo` to audit
  cross-file invariants (the mitigation registry vs its seed corpora,
  docs rows, and contract coverage).

Scoping is by dotted module name (``repro.sim.runner``), derived from
the file's path under ``src/`` or overridden with a
``# repro-lint-module: <name>`` comment (how the fixture corpus under
``tests/lint/fixtures/`` claims an audited package).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          # repo-root-relative, posix separators
    line: int          # 1-based
    col: int           # 0-based
    message: str
    fix_hint: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclasses.dataclass
class FileContext:
    """One parsed source file, as handed to file rules."""

    rel: str                 # repo-root-relative, posix
    module: str | None       # dotted name, None when not a repro module
    lines: list[str]
    tree: ast.Module


class Rule:
    """Base rule: id, description, fix-hint, module scope."""

    id: str = ""
    description: str = ""
    fix_hint: str = ""
    #: module prefixes the rule audits (None: every repro module)
    scope: tuple[str, ...] | None = None
    #: module prefixes exempt from the rule
    exclude: tuple[str, ...] = ()

    def applies_to(self, module: str | None) -> bool:
        if module is None:
            return False
        if any(_covers(prefix, module) for prefix in self.exclude):
            return False
        if self.scope is None:
            return True
        return any(_covers(prefix, module) for prefix in self.scope)

    def check_file(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_repo(self, root: pathlib.Path) -> list[Finding]:
        return []

    # -- helpers for subclasses -------------------------------------------
    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=self.id, path=ctx.rel,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message, fix_hint=self.fix_hint)


def _covers(prefix: str, module: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class RuleVisitor(ast.NodeVisitor):
    """AST visitor collecting findings for one (rule, file) pair."""

    def __init__(self, rule: Rule, ctx: FileContext):
        self.rule = rule
        self.ctx = ctx
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.ctx, node, message))


class AstRule(Rule):
    """A rule implemented as a :class:`RuleVisitor` subclass."""

    visitor: type[RuleVisitor]

    def check_file(self, ctx: FileContext) -> list[Finding]:
        walker = self.visitor(self, ctx)
        walker.visit(ctx.tree)
        return walker.findings


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (registration order is report order)."""
    if not rule.id:
        raise ValueError(f"{type(rule).__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"lint rule {rule.id!r} already registered")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    from . import rules as _rules  # noqa: F401  (registration side effect)
    return tuple(_REGISTRY.values())


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.id for rule in all_rules())


def get_rule(rule_id: str) -> Rule:
    all_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown lint rule {rule_id!r}; registered: "
                       f"{', '.join(_REGISTRY)}") from None
