"""Command-line tools (repro.tools.*)."""

import pytest

from repro.cpu.trace import load_trace_file, trace_mpki
from repro.tools import hammer, tables, tracegen


class TestTablesCLI:
    def test_list(self, capsys):
        assert tables.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "tab07" in out and "fig09" in out

    def test_analytic_table(self, capsys):
        assert tables.main(["tab07"]) == 0
        out = capsys.readouterr().out
        assert "176" in out

    def test_every_analytic_name_renders(self):
        for name in tables.ANALYTIC_NAMES:
            if name == "fig14":
                continue  # Monte-Carlo; covered by its own test
            assert tables.render_table(name)

    def test_simulated_table(self, capsys):
        code = tables.main(["fig09", "--workloads", "xalancbmk",
                            "--instructions", "8000"])
        assert code == 0
        assert "mopac-c@500" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert tables.main(["tab99"]) == 2

    def test_no_args_lists(self, capsys):
        assert tables.main([]) == 0


class _Attacked(Exception):
    """Raised by the run_attack stub with what the CLI passed it."""


def _attacked(monkeypatch, design, *argv):
    """(policy, harness geometry) the hammer CLI attacks for ``design``."""
    def capture(policy, pattern, activations, **geometry):
        raise _Attacked(policy, geometry)
    monkeypatch.setattr(hammer, "run_attack", capture)
    with pytest.raises(_Attacked) as caught:
        hammer.main(["--design", design, *argv])
    return caught.value.args


class TestHammerCLI:
    def test_secure_design_returns_zero(self, capsys):
        code = hammer.main(["--design", "mopac-d", "--pattern",
                            "double-sided", "--acts", "60000"])
        assert code == 0
        assert "attack defeated" in capsys.readouterr().out

    def test_broken_design_returns_one(self, capsys):
        code = hammer.main(["--design", "baseline", "--pattern",
                            "single-sided", "--acts", "30000",
                            "--refresh-groups", "1024"])
        assert code == 1
        assert "ATTACK SUCCEEDED" in capsys.readouterr().out

    @pytest.mark.parametrize("design", hammer.DESIGNS)
    def test_every_design_constructs(self, design, monkeypatch):
        policy, _ = _attacked(monkeypatch, design)
        assert policy.name == design

    @pytest.mark.parametrize("design", hammer.DESIGNS)
    def test_policy_refreshes_the_harness_geometry(self, design,
                                                   monkeypatch):
        # a policy built for another geometry would refresh rows the
        # attack never touches
        policy, geometry = _attacked(monkeypatch, design, "--banks", "4",
                                     "--rows", "1024",
                                     "--refresh-groups", "64")
        holders = [policy] + list(getattr(policy, "chips", []))
        schedules = [schedule for holder in holders
                     for schedule in getattr(holder, "refresh_schedules", [])]
        assert len(schedules) in (0, geometry["banks"])
        for schedule in schedules:
            assert (schedule.rows, schedule.groups) \
                == (geometry["rows"], geometry["refresh_groups"])

    @pytest.mark.parametrize("pattern", hammer.PATTERNS)
    def test_every_pattern_constructs(self, pattern):
        gen = hammer.build_pattern(pattern, banks=4, aggressors=8, seed=1)
        bank, row = next(gen)
        assert bank >= 0 and row >= 0


class TestTracegenCLI:
    def test_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "out.trace"
        code = tracegen.main(["mcf", "--accesses", "2000",
                              "-o", str(path)])
        assert code == 0
        items = load_trace_file(str(path))
        assert len(items) == 2000
        assert trace_mpki(items) == pytest.approx(28.8, rel=0.1)

    def test_list(self, capsys):
        assert tracegen.main(["--list"]) == 0
        assert "masstree" in capsys.readouterr().out

    def test_unknown_workload(self, tmp_path):
        assert tracegen.main(["doom"]) == 2
