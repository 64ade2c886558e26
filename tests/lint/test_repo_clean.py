"""The gate itself: the shipped tree holds every invariant.

This is ``make lint`` as a test — if it fails here it fails in CI, with
the offending file:line in the assertion message.
"""

import pathlib

from repro.lint import Baseline, lint_paths
from repro.lint.report import render_text

ROOT = pathlib.Path(__file__).parents[2]


def test_src_repro_lints_clean():
    baseline = Baseline.load(ROOT / "lint-baseline.json")
    run = lint_paths([ROOT / "src" / "repro"], root=ROOT,
                     baseline=baseline)
    assert run.clean, "\n" + render_text(run)
    assert run.stale_baseline == 0


def test_env_discipline_has_no_grandfathered_debt():
    baseline = Baseline.load(ROOT / "lint-baseline.json")
    assert baseline.rules()["env-discipline"] == 0, (
        "env-discipline landed with zero baseline entries; route new "
        "environment access through repro.exec.env instead")


def test_the_documented_clock_waivers_are_live():
    # the serve/exec clock helpers carry reasoned determinism waivers
    # (docs/static-analysis.md); they must keep covering real findings —
    # if this set changes, the waiver story in the docs changes with it
    run = lint_paths([ROOT / "src" / "repro"], root=ROOT)
    assert run.suppressed, "expected the documented serve/exec waivers"
    assert {f.rule for f in run.suppressed} == {"determinism"}
    covered_files = {f.path for f in run.suppressed}
    assert "src/repro/serve/server.py" in covered_files
    assert "src/repro/exec/resolver.py" in covered_files
