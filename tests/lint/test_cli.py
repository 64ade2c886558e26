"""``python -m repro.lint`` end to end: exit codes and reports."""

import pathlib

import pytest

from repro.lint.cli import main
from repro.lint.core import rule_ids

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
BAD = FIXTURES / "determinism" / "bad.py"
GOOD = FIXTURES / "determinism" / "good.py"


def run_cli(*argv):
    return main(list(argv))


def test_clean_run_exits_zero(capsys):
    assert run_cli(str(GOOD), "--root", str(FIXTURES)) == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_one_with_locations(capsys):
    assert run_cli(str(BAD), "--root", str(FIXTURES)) == 1
    out = capsys.readouterr().out
    assert "determinism/bad.py" in out
    assert "error[determinism]" in out
    assert "hint:" in out


def test_rule_filter(capsys):
    # only env-discipline requested: the determinism fixture is clean
    assert run_cli(str(BAD), "--root", str(FIXTURES),
                   "--rules", "env-discipline") == 0
    capsys.readouterr()


def test_unknown_rule_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(str(BAD), "--rules", "no-such-rule")
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_empty_rule_list_rejected(capsys):
    # "," selects no rule at all: running none must not pass as clean
    with pytest.raises(SystemExit) as exit_info:
        run_cli(str(BAD), "--root", str(FIXTURES), "--rules", ",")
    assert exit_info.value.code == 2
    assert "names no rule" in capsys.readouterr().err


def test_list_rules_prints_catalog(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out


def test_unparseable_input_fails_the_run(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert run_cli(str(broken), "--root", str(tmp_path)) == 1
    assert "cannot lint" in capsys.readouterr().out


def test_missing_path_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli("no/such/dir")
    capsys.readouterr()


def test_no_python_file_is_not_clean(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(str(tmp_path), "--root", str(tmp_path))
    assert exit_info.value.code != 0
    assert str(tmp_path) in capsys.readouterr().err
