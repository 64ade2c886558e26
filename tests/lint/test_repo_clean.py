"""The gate itself: the shipped tree holds every invariant.

This is the repo's one lint gate — if it fails here it fails in CI,
with the offending file:line in the assertion message.
"""

import pathlib

import pytest

from repro.lint import lint_paths
from repro.lint.cli import render_text

ROOT = pathlib.Path(__file__).parents[2]


@pytest.fixture(scope="module")
def run():
    return lint_paths([ROOT / "src" / "repro"], root=ROOT)


def test_src_repro_lints_clean(run):
    assert run.clean, "\n" + render_text(run)


def test_the_documented_clock_waivers_are_live(run):
    # the serve/exec clock helpers carry reasoned determinism waivers
    # (docs/static-analysis.md); they must keep covering real findings —
    # if this set changes, the waiver story in the docs changes with it
    assert run.suppressed, "expected the documented serve/exec waivers"
    assert {f.rule for f in run.suppressed} == {"determinism"}
    covered_files = {f.path for f in run.suppressed}
    assert "src/repro/serve/server.py" in covered_files
    assert "src/repro/exec/resolver.py" in covered_files
