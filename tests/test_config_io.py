"""INI serialisation of design points and the campaign tool."""

import pathlib

import pytest

from repro.config_io import (config_summary, design_point_from_ini,
                             design_point_to_ini, load_design_point,
                             save_design_point)
from repro.config import SystemConfig
from repro.sim.runner import DesignPoint
from repro.tools import campaign


class TestIniRoundtrip:
    def test_default_point(self):
        point = DesignPoint(workload="mcf", design="mopac-d", trh=500)
        assert design_point_from_ini(design_point_to_ini(point)) == point

    def test_fancy_point(self):
        point = DesignPoint(
            workload="hammer", design="mopac-d-nup", trh=250,
            instructions=12_345, seed=99, page_policy="ton100", chips=4,
            srq_size=32, drain_on_ref=3, p=1 / 32, rows_per_bank=1024,
            refresh_scale=1 / 128, rowpress=True, sampler="para",
            abo_level=2)
        assert design_point_from_ini(design_point_to_ini(point)) == point

    def test_auto_fields(self):
        point = DesignPoint(workload="mcf", design="mopac-d")
        text = design_point_to_ini(point)
        assert "drain_on_ref = auto" in text
        assert "p = auto" in text

    def test_ini_contains_resolved_timing(self):
        text = design_point_to_ini(
            DesignPoint(workload="mcf", design="prac"))
        assert "[timing]" in text
        assert "trp = 14" in text  # base timing; PRAC applies per policy

    def test_file_roundtrip(self, tmp_path):
        point = DesignPoint(workload="add", design="prac", trh=1000)
        path = tmp_path / "point.ini"
        save_design_point(point, str(path))
        assert load_design_point(str(path)) == point

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            design_point_from_ini("[dram]\nsubchannels = 2\n")

    def test_non_positive_instructions_rejected(self):
        text = design_point_to_ini(
            DesignPoint(workload="mcf", design="prac", instructions=1))
        text = text.replace("instructions = 1\n", "instructions = 0\n")
        with pytest.raises(ValueError, match="instructions must be positive"):
            design_point_from_ini(text)


class TestConfigSummary:
    def test_paper_summary(self):
        summary = config_summary(SystemConfig.paper())
        assert summary["capacity"] == "32.0 GiB"
        assert summary["banks"] == "64"
        assert summary["cores"] == "8"


class TestCampaign:
    FAST = dict(instructions=8_000)

    def test_plan_run_stats(self, tmp_path, capsys):
        assert campaign.main([
            "plan", "--dir", str(tmp_path), "--workloads", "xalancbmk",
            "--designs", "prac", "mopac-c", "--trhs", "500",
            "--instructions", "8000"]) == 0
        inis = list(pathlib.Path(tmp_path).glob("*.ini"))
        assert len(inis) == 2

        assert campaign.main(["run", "--dir", str(tmp_path)]) == 0
        csv_path = pathlib.Path(tmp_path) / "results.csv"
        assert csv_path.exists()
        content = csv_path.read_text()
        assert "xalancbmk" in content
        assert content.count("\n") == 3  # header + 2 rows

        assert campaign.main(["stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prac" in out and "mopac-c" in out

    def test_plan_refuses_non_positive_instructions(self, tmp_path):
        with pytest.raises(ValueError, match="instructions must be positive"):
            campaign.plan(pathlib.Path(tmp_path), ["mcf"], ["prac"], [500], 0)
        assert not list(pathlib.Path(tmp_path).glob("*.ini"))

    def test_stats_without_run_fails(self, tmp_path):
        assert campaign.main(["stats", "--dir", str(tmp_path)]) == 2

    def test_run_without_plan_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            campaign.run(pathlib.Path(tmp_path))
