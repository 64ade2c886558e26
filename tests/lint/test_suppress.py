"""Inline suppression comments: parsing, coverage and hygiene."""

from repro.lint import lint_source
from repro.lint.suppress import covering, scan


def test_scan_parses_both_separators():
    waivers, broken = scan([
        "x = 1  # repro: allow(determinism) — em-dash reason",
        "y = 2  # repro: allow(determinism) -- ascii reason",
        "z = 3  # repro: allow(determinism): colon reason",
    ])
    assert len(waivers) == 3 and not broken
    assert all(w.rules == {"determinism"} for w in waivers)


def test_waiver_covers_its_line_and_the_next_only():
    waivers, _ = scan(["# repro: allow(determinism) — why", "x", "y"])
    assert covering(waivers, "determinism", 1)
    assert covering(waivers, "determinism", 2)
    assert not covering(waivers, "determinism", 3)
    assert not covering(waivers, "env-discipline", 2)


def test_multi_rule_waiver():
    waivers, broken = scan(
        ["# repro: allow(determinism, env-discipline) — shared reason"])
    assert not broken
    assert waivers[0].rules == {"determinism", "env-discipline"}


def test_malformed_waivers_reported_not_honored():
    waivers, broken = scan([
        "x  # repro: allowed(determinism) — wrong verb",
        "y  # repro: allow(determinism)",
    ])
    assert not waivers
    assert [b.line for b in broken] == [1, 2]


def test_reasonless_waiver_is_a_hygiene_finding():
    run = lint_source("x = 1  # repro: allow(determinism)\n",
                      module="repro.sim.fixture")
    assert [f.rule for f in run.findings] == ["suppression-hygiene"]


def test_waiver_inside_a_string_literal_waives_nothing():
    source = ('import time\n'
              'MSG = "# repro: allow(determinism) — not a comment"\n'
              'T = time.time()\n')
    run = lint_source(source, module="repro.sim.fixture")
    assert [(f.rule, f.line) for f in run.findings] == [("determinism", 3)]
    assert not run.suppressed
    assert scan(source.splitlines()) == ([], [])


def test_malformed_marker_inside_a_string_is_not_reported():
    waivers, broken = scan(['DOC = "# repro: allowed(x) — wrong verb"',
                            "x = 1  # repro: allow(determinism) — why"])
    assert [w.line for w in waivers] == [2] and not broken
