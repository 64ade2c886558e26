"""Every rule against its fixture corpus: fires on bad, quiet on good,
honors suppressions. See tests/lint/fixtures/README.md."""

import pathlib

import pytest

from repro.lint import get_rule, lint_paths
from repro.lint.engine import module_for

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule id -> fixture directory (file-rule corpora).
FILE_RULES = {
    "determinism": "determinism",
    "rng-discipline": "rng_discipline",
    "env-discipline": "env_discipline",
    "async-blocking": "async_blocking",
    "stats-namespace": "stats_namespace",
    "suppression-hygiene": "suppression_hygiene",
}


def lint_fixture(path: pathlib.Path, rule_id: str):
    """Lint one fixture file with exactly one rule."""
    return lint_paths([path], root=FIXTURES, rules=[get_rule(rule_id)])


def fixture_files(rule_id: str, prefix: str) -> list[pathlib.Path]:
    files = sorted((FIXTURES / FILE_RULES[rule_id]).glob(f"{prefix}*.py"))
    assert files, f"no {prefix}* fixtures for {rule_id}"
    return files


@pytest.mark.parametrize("rule_id", sorted(FILE_RULES))
def test_fires_on_every_bad_fixture(rule_id):
    for path in fixture_files(rule_id, "bad"):
        run = lint_fixture(path, rule_id)
        assert run.findings, f"{rule_id} stayed quiet on {path.name}"
        assert all(f.rule == rule_id for f in run.findings)
        assert not run.errors


@pytest.mark.parametrize("rule_id", sorted(FILE_RULES))
def test_quiet_on_every_good_fixture(rule_id):
    for path in fixture_files(rule_id, "good"):
        run = lint_fixture(path, rule_id)
        assert not run.findings, (
            f"{rule_id} fired on {path.name}: "
            f"{[f.message for f in run.findings]}")
        assert not run.errors


@pytest.mark.parametrize("rule_id", sorted(set(FILE_RULES)
                                           - {"suppression-hygiene"}))
def test_suppression_swallows_the_violation(rule_id):
    for path in fixture_files(rule_id, "good_suppressed"):
        run = lint_fixture(path, rule_id)
        assert not run.findings
        assert run.suppressed, (
            f"{path.name} suppressed nothing — the waiver is dead "
            f"or the violation is gone")
        assert all(f.rule == rule_id for f in run.suppressed)


def test_findings_carry_fix_hints_and_positions():
    path = FIXTURES / "determinism" / "bad.py"
    run = lint_fixture(path, "determinism")
    for finding in run.findings:
        assert finding.fix_hint
        assert finding.line > 0


def test_determinism_counts_every_bad_site():
    # time.time, perf_counter, datetime.now, os.urandom, hash()
    run = lint_fixture(FIXTURES / "determinism" / "bad.py", "determinism")
    assert len(run.findings) == 5


def test_scope_gates_the_rule():
    # the same blocking source outside repro.serve is not async-blocking's
    # business: scoped rules never fire on foreign modules
    bad = FIXTURES / "async_blocking" / "bad.py"
    source = bad.read_text().replace(
        "# repro-lint-module: repro.serve.fixture_bad",
        "# repro-lint-module: repro.tools.fixture_bad")
    from repro.lint import lint_source
    run = lint_source(source, module="repro.tools.fixture_bad")
    assert not [f for f in run.findings if f.rule == "async-blocking"]


def test_scope_covers_the_point_resolver():
    # the daemon's event loop runs the resolver's pass too
    bad = FIXTURES / "async_blocking" / "bad.py"
    source = bad.read_text().replace(
        "# repro-lint-module: repro.serve.fixture_bad",
        "# repro-lint-module: repro.exec.resolver")
    from repro.lint import lint_source
    run = lint_source(source, module="repro.exec.resolver")
    assert [f for f in run.findings if f.rule == "async-blocking"]


def test_module_override_comment_wins_over_layout():
    bad = FIXTURES / "determinism" / "bad.py"
    module = module_for(bad, FIXTURES, bad.read_text())
    assert module == "repro.sim.fixture_bad"


# ----------------------------------------------------------------------
# registry-completeness: repo-level fixtures
# ----------------------------------------------------------------------
def completeness_findings(repo_name: str):
    rule = get_rule("registry-completeness")
    return rule.check_repo(FIXTURES / "registry_completeness" / repo_name)


def test_completeness_quiet_on_good_repo():
    assert completeness_findings("good_repo") == []


def test_completeness_fires_on_every_gap():
    messages = [f.message for f in completeness_findings("bad_repo")]
    assert len(messages) == 5
    assert any("'alpha' has no seed corpus" in m for m in messages)
    assert any("'beta' has no seed corpus" in m for m in messages)
    assert any("'beta' has no row" in m for m in messages)
    assert any("'beta' is not exercised" in m for m in messages)
    assert any("stale seed corpus: 'orphan'" in m for m in messages)


def test_completeness_skips_repos_without_a_registry(tmp_path):
    rule = get_rule("registry-completeness")
    assert rule.check_repo(tmp_path) == []
