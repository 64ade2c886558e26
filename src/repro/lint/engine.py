"""Lint orchestration: walk files, run rules, apply waivers.

One :func:`lint_paths` call is one lint run:

1. collect ``*.py`` files from the target paths (skipping
   ``__pycache__``), parse each once, and resolve its dotted module
   name — from its location under ``src/`` or from an explicit
   ``# repro-lint-module:`` override (the fixture corpus);
2. run every in-scope file rule's visitor over each tree, and every
   repo rule once against the repo root;
3. drop findings covered by an inline ``# repro: allow(...)`` waiver
   (suppressions apply to repo-rule findings too, via the file they
   anchor in).

The result is a :class:`LintRun`; ``run.findings`` is what fails CI.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

from . import suppress
from .core import FileContext, Finding, Rule, all_rules

#: Fixture files claim an audited module with this comment (first lines).
MODULE_OVERRIDE = re.compile(r"#\s*repro-lint-module:\s*([\w.]+)")


@dataclasses.dataclass
class LintRun:
    """Outcome of one lint invocation."""

    files: int
    #: actionable: not covered by an inline waiver
    findings: list[Finding] = dataclasses.field(default_factory=list)
    suppressed: list[Finding] = dataclasses.field(default_factory=list)
    #: unreadable / unparseable inputs
    errors: list[Finding] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def triage(self, finding: Finding,
               waivers: list[suppress.Suppression]) -> None:
        """File ``finding`` as suppressed or actionable."""
        if suppress.covering(waivers, finding.rule, finding.line):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


def module_for(path: pathlib.Path, root: pathlib.Path,
               source: str) -> str | None:
    """Dotted module name for ``path``, or ``None`` (not a repro module).

    ``<root>/src/repro/sim/runner.py`` → ``repro.sim.runner``;
    ``__init__.py`` names its package. Files elsewhere are anonymous
    unless their first lines carry ``# repro-lint-module: <name>`` —
    which is how the fixture corpus opts into an audited scope.
    """
    for line in source.splitlines()[:5]:
        match = MODULE_OVERRIDE.search(line)
        if match:
            return match.group(1)
    try:
        parts = list(path.relative_to(root).parts)
    except ValueError:
        return None
    if parts[:1] == ["src"]:
        parts = parts[1:]
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1].removesuffix(".py")
    return ".".join(parts)


def _collect_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(
                p for p in path.rglob("*.py")
                if "__pycache__" not in p.parts))
        else:
            files.append(path)
    return files


def _load(path: pathlib.Path, root: pathlib.Path,
          run: LintRun) -> FileContext | None:
    """Parse one file; an unreadable one becomes an error of ``run``."""
    rel = _rel(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError) as error:
        line = getattr(error, "lineno", 1) or 1
        run.errors.append(Finding(
            rule="parse", path=rel, line=line, col=0,
            message=f"cannot lint: {type(error).__name__}: {error}"))
        return None
    return FileContext(rel=rel, module=module_for(path, root, source),
                       lines=source.splitlines(), tree=tree)


def _check_file(ctx: FileContext, rules: list[Rule],
                run: LintRun) -> list[suppress.Suppression]:
    """Run the in-scope file rules over ``ctx`` and apply its waivers."""
    waivers, _ = suppress.scan(ctx.lines)
    for rule in rules:
        if rule.applies_to(ctx.module):
            for finding in rule.check_file(ctx):
                run.triage(finding, waivers)
    return waivers


def _rel(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: list[pathlib.Path], root: pathlib.Path,
               rules: list[Rule] | None = None) -> LintRun:
    """Lint ``paths`` (files or directories) against ``rules``."""
    active = list(rules) if rules is not None else list(all_rules())
    root = pathlib.Path(root)
    files = _collect_files([pathlib.Path(p) for p in paths])
    run = LintRun(files=len(files))
    waivers_by_rel: dict[str, list[suppress.Suppression]] = {}
    for path in files:
        ctx = _load(path, root, run)
        if ctx is not None:
            waivers_by_rel[ctx.rel] = _check_file(ctx, active, run)
    for rule in active:
        for finding in rule.check_repo(root):
            run.triage(finding, _waivers_for(finding.path, root,
                                             waivers_by_rel))
    run.findings.sort(key=Finding.sort_key)
    return run


def _waivers_for(rel: str, root: pathlib.Path,
                 cache: dict[str, list[suppress.Suppression]]
                 ) -> list[suppress.Suppression]:
    """Suppressions of the file a repo-rule finding anchors in."""
    if rel not in cache:
        try:
            lines = (root / rel).read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        cache[rel], _ = suppress.scan(lines)
    return cache[rel]


def lint_source(source: str, module: str,
                rules: list[Rule] | None = None) -> LintRun:
    """Lint one in-memory module (tests and tooling).

    Runs file rules only; repo rules need a tree on disk — point
    :func:`lint_paths` (or the rule's ``check_repo``) at a root.
    """
    active = list(rules) if rules is not None else list(all_rules())
    ctx = FileContext(rel="<memory>", module=module,
                      lines=source.splitlines(), tree=ast.parse(source))
    run = LintRun(files=1)
    _check_file(ctx, active, run)
    run.findings.sort(key=Finding.sort_key)
    return run
