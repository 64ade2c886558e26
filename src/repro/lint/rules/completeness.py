"""``registry-completeness``: every mitigation ships its safety net.

Registering a design in :mod:`repro.mitigations.registry` promises the
full verification stack (differential run, fuzzer, contract suite —
see ``docs/mitigations.md``). This repo-level rule proves the promise
structurally for every ``register(MitigationSpec(name=...))`` entry:

* **contract coverage** — ``tests/mitigations/test_contract.py``
  parametrizes over ``registry.names()``/``registry.specs()`` (full
  coverage by construction) or names the design literally;
* **seed corpus** — a replay directory exists under
  ``tests/check/seeds/<name>/`` (``tests/check/test_corpus.py``
  replays it);
* **docs row** — ``docs/mitigations.md`` mentions the design.

It also reports the reverse drift: a seed-corpus directory for a
design no longer in the registry is stale and must be deleted or the
design re-registered.
"""

from __future__ import annotations

import ast
import pathlib
import re

from ..core import Finding, Rule, register

REGISTRY = pathlib.PurePosixPath("src/repro/mitigations/registry.py")
CONTRACT = pathlib.PurePosixPath("tests/mitigations/test_contract.py")
SEEDS = pathlib.PurePosixPath("tests/check/seeds")
DOCS = pathlib.PurePosixPath("docs/mitigations.md")


def registered_designs(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every ``register(MitigationSpec(name=...))``."""
    designs: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register" and node.args):
            continue
        spec = node.args[0]
        if not (isinstance(spec, ast.Call)
                and isinstance(spec.func, ast.Name)
                and spec.func.id == "MitigationSpec"):
            continue
        for keyword in spec.keywords:
            if keyword.arg == "name" \
                    and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                designs.append((keyword.value.value, node.lineno))
    return designs


def _contract_coverage(path: pathlib.Path) -> tuple[bool, set[str]]:
    """(covers-whole-registry?, literally-named designs)."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return False, set()
    dynamic = False
    literals: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("names", "specs") \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "registry":
            dynamic = True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            literals.add(node.value)
    return dynamic, literals


class RegistryCompleteness(Rule):
    id = "registry-completeness"
    description = ("every repro.mitigations.registry entry has contract-"
                   "suite coverage, a seed corpus under "
                   "tests/check/seeds/<name>/, and a docs/mitigations.md "
                   "row; stale seed corpora are flagged too")
    fix_hint = ("new design: add a seeds directory (python -m "
                "repro.check.driver --grow, see docs/verification.md) "
                "and a docs row; removed design: delete its corpus")

    def check_repo(self, root: pathlib.Path) -> list[Finding]:
        registry_path = root / REGISTRY
        if not registry_path.is_file():
            return []  # not a repo with a mitigation registry
        try:
            tree = ast.parse(registry_path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError) as error:
            return [Finding(rule=self.id, path=str(REGISTRY), line=1,
                            col=0, fix_hint=self.fix_hint,
                            message=f"cannot parse registry: {error}")]
        designs = registered_designs(tree)
        dynamic, literals = _contract_coverage(root / CONTRACT)
        docs_text = _read(root / DOCS)

        findings: list[Finding] = []

        def fail(line: int, message: str) -> None:
            findings.append(Finding(
                rule=self.id, path=str(REGISTRY), line=line, col=0,
                fix_hint=self.fix_hint, message=message))

        for name, line in designs:
            if not (root / SEEDS / name).is_dir():
                fail(line, f"mitigation {name!r} has no seed corpus "
                           f"under {SEEDS}/{name}/")
            if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])",
                             docs_text):
                fail(line, f"mitigation {name!r} has no row in {DOCS}")
            if not dynamic and name not in literals:
                fail(line, f"mitigation {name!r} is not exercised by "
                           f"{CONTRACT}")

        known = {name for name, _ in designs}
        seeds_root = root / SEEDS
        if seeds_root.is_dir():
            for entry in sorted(seeds_root.iterdir()):
                if entry.is_dir() and entry.name not in known:
                    findings.append(Finding(
                        rule=self.id, path=str(SEEDS / entry.name),
                        line=1, col=0, fix_hint=self.fix_hint,
                        message=f"stale seed corpus: {entry.name!r} is "
                                f"not in the mitigation registry"))
        return findings


def _read(path: pathlib.Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


register(RegistryCompleteness())
