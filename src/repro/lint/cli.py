"""``python -m repro.lint``: the developer entry point.

Exit status 0 means every invariant holds (no unsuppressed findings
and every input parsed); findings or unparseable inputs give 1, and a
usage error — an unknown or empty ``--rules``, a missing path, or
paths holding no Python file — gives 2. The default form lints
``src/repro`` under the repo root auto-detected from this file's
location; tier-1's ``tests/lint/test_repo_clean.py`` makes the same
check.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .core import Rule, all_rules, get_rule
from .engine import LintRun, lint_paths


def default_root() -> pathlib.Path:
    """The repo checkout this installed package lives in.

    ``src/repro/lint/cli.py`` → three parents up. Falls back to the
    working directory when the package is imported from site-packages
    (no ``src`` layout above it).
    """
    here = pathlib.Path(__file__).resolve()
    candidate = here.parents[3]
    if candidate.name == "src":
        candidate = candidate.parent
    if (candidate / "src" / "repro").is_dir():
        return candidate
    return pathlib.Path.cwd()


def render_text(run: LintRun) -> str:
    """GCC-style ``path:line:col error[rule] message`` listing."""
    out: list[str] = []
    for finding in run.errors + run.findings:
        out.append(f"{finding.path}:{finding.line}:{finding.col}: "
                   f"error[{finding.rule}] {finding.message}")
        if finding.fix_hint:
            out.append(f"    hint: {finding.fix_hint}")
    details = [f"{len(run.suppressed)} suppressed"]
    if run.errors:
        details.append(f"{len(run.errors)} unparseable file(s)")
    state = "clean" if run.clean else f"{len(run.findings)} finding(s)"
    out.append(f"repro.lint: {state} across {run.files} file(s) "
               f"({', '.join(details)})")
    return "\n".join(out) + "\n"


def scope_text(rule: Rule) -> str:
    """The modules ``rule`` audits, as the catalog and docs state it."""
    if type(rule).check_repo is not Rule.check_repo:
        return "repo-level"
    scope = ", ".join(rule.scope) if rule.scope else "all repro modules"
    if rule.exclude:
        scope += f" (except {', '.join(rule.exclude)})"
    return scope


def render_catalog() -> str:
    """The registered rule catalog (``--list-rules``)."""
    out: list[str] = []
    for rule in all_rules():
        out.append(rule.id)
        out.append(f"    {rule.description}")
        out.append(f"    scope: {scope_text(rule)}")
        out.append(f"    fix: {rule.fix_hint}")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based invariant linter for the repro codebase "
                    "(see docs/static-analysis.md).")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories to lint "
                             "(default: <root>/src/repro)")
    parser.add_argument("--root", type=pathlib.Path, default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only these rule ids")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(render_catalog())
        return 0

    root = (args.root or default_root()).resolve()
    paths = [p if p.is_absolute() else root / p for p in args.paths] \
        or [root / "src" / "repro"]
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")

    rules = None
    if args.rules is not None:
        try:
            rules = [get_rule(rule_id.strip())
                     for rule_id in args.rules.split(",") if rule_id.strip()]
        except KeyError as error:
            parser.error(str(error))
        if not rules:
            parser.error(f"--rules {args.rules!r} names no rule")

    run = lint_paths(paths, root=root, rules=rules)
    if not run.files:
        parser.error(f"no Python file to lint under "
                     f"{', '.join(str(p) for p in paths)}")
    sys.stdout.write(render_text(run))
    return 0 if run.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
