"""The linter's own completeness: every rule has a corpus and catalog
entry, and the fixture corpus stays inside the documented shape."""

import pathlib

from repro.lint import all_rules
from repro.lint.cli import scope_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DOCS = pathlib.Path(__file__).parents[2] / "docs" / "static-analysis.md"


def fixture_dir(rule_id: str) -> pathlib.Path:
    return FIXTURES / rule_id.replace("-", "_")


def test_every_registered_rule_has_a_fixture_corpus():
    for rule in all_rules():
        directory = fixture_dir(rule.id)
        assert directory.is_dir(), (
            f"rule {rule.id!r} has no fixture corpus under "
            f"tests/lint/fixtures/ — every rule ships proof it fires")
        bad = list(directory.glob("bad*"))
        good = list(directory.glob("good*"))
        assert bad, f"{rule.id}: no bad* fixture"
        assert good, f"{rule.id}: no good* fixture"


def test_every_rule_is_fully_described():
    for rule in all_rules():
        assert rule.id and rule.id == rule.id.lower()
        assert rule.description, f"{rule.id}: empty description"
        assert rule.fix_hint, f"{rule.id}: a finding must say how to fix"


def test_rule_ids_are_unique_and_stable():
    ids = [rule.id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    # the documented contract set (docs/static-analysis.md): removing or
    # renaming one is an interface change, update the docs and this list
    assert set(ids) == {
        "determinism", "rng-discipline", "env-discipline",
        "async-blocking", "stats-namespace", "registry-completeness",
        "suppression-hygiene",
    }


def test_no_stray_fixture_directories():
    known = {fixture_dir(rule.id).name for rule in all_rules()}
    on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
    assert on_disk <= known, f"orphan fixture dirs: {on_disk - known}"


def test_fixture_files_declare_their_module():
    for path in FIXTURES.rglob("*.py"):
        if "registry_completeness" in path.parts:
            continue  # fixture repos are addressed by path layout
        head = path.read_text().splitlines()[:5]
        assert any("repro-lint-module:" in line for line in head), (
            f"{path} does not opt into a lint scope")


def test_docs_catalog_scopes_match_list_rules():
    # the hand-written table in docs/static-analysis.md states each
    # rule's scope as --list-rules prints it, row for row
    rows = [line.split(" | ")[:2]
            for line in DOCS.read_text().splitlines()
            if line.startswith("| `")]
    documented = [(rule_id.strip("|` "), scope.replace("`", ""))
                  for rule_id, scope in rows]
    assert documented == [(rule.id, scope_text(rule))
                          for rule in all_rules()]
