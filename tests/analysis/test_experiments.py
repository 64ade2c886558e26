"""Experiment drivers: analytical exactness and simulation smoke runs."""

import pytest

from repro.analysis import experiments as ex

#: minimal profile so the simulation-backed drivers finish in seconds
TINY = dict(workloads=("xalancbmk",), instructions=8_000)


class TestAnalyticalDrivers:
    def test_fig4(self):
        data = ex.fig4_latency()
        assert data["baseline_ns"] == 40
        assert data["prac_ns"] == 64

    def test_tab2(self):
        assert ex.tab2_moat_ath() == {1000: 975, 500: 472, 250: 219}

    def test_tab5(self):
        budgets = ex.tab5_budgets()
        assert budgets[1].epsilon == pytest.approx(8.48e-9, rel=0.01)

    def test_tab7(self):
        assert [p.ath_star for p in ex.tab7_mopac_c()] == [80, 176, 368]

    def test_tab8(self):
        assert [p.ath_star for p in ex.tab8_mopac_d()] == [60, 152, 336]

    def test_tab9(self):
        reports = ex.tab9_attacks_c()
        assert reports[1].slowdown == pytest.approx(0.067, abs=0.01)

    def test_tab10(self):
        table = ex.tab10_attacks_d()
        assert table[500]["srq_full"].slowdown == pytest.approx(
            0.149, abs=0.005)

    def test_tab11(self):
        assert [p.nup_ath_star for p in ex.tab11_nup()] == [288, 136, 56]

    def test_tab13(self):
        rows = ex.tab13_tolerated()
        assert [r.mopac_d for r in rows] == [250, 500, 1000]

    def test_tab14(self):
        table = ex.tab14_rowpress()
        assert table[500] == {"mopac_c": 80, "mopac_d": 64}

    def test_fig14_alpha(self):
        assert 0.4 < ex.fig14_alpha(trials=3000) < 0.8


class TestSlowdownTable:
    def test_add_and_average(self):
        table = ex.SlowdownTable(label="t")
        table.add("a", "col", 0.1)
        table.add("b", "col", 0.3)
        assert table.column_average("col") == pytest.approx(0.2)
        assert table.averages() == {"col": pytest.approx(0.2)}

    def test_columns_ordered(self):
        table = ex.SlowdownTable(label="t")
        table.add("a", "x", 0.1)
        table.add("a", "y", 0.2)
        assert table.columns == ["x", "y"]


class TestSimulationDriversSmoke:
    def test_fig2(self):
        table = ex.fig2_prac_slowdown(trhs=(500,), **TINY)
        assert "prac@500" in table.columns
        assert "xalancbmk" in table.rows

    def test_fig9(self):
        table = ex.fig9_mopac_c(trhs=(500,), **TINY)
        assert table.column_average("mopac-c@500") <= \
            table.column_average("prac") + 0.02

    def test_fig11(self):
        table = ex.fig11_mopac_d(trhs=(500,), **TINY)
        assert "mopac-d@500" in table.columns

    def test_fig12(self):
        table = ex.fig12_drain_sweep(trhs=(500,), drains=(0, 4), **TINY)
        assert set(table.columns) == {"trh500/drain0", "trh500/drain4"}

    def test_fig13(self):
        table = ex.fig13_srq_sweep(trhs=(500,), sizes=(8, 32), **TINY)
        assert len(table.columns) == 2

    def test_fig17(self):
        table = ex.fig17_nup(trhs=(500,), **TINY)
        assert {"uniform@500", "nup@500"} <= set(table.columns)

    def test_tab12(self):
        # xalancbmk's ACT rate is too low to fill MINT windows in a tiny
        # run; mcf exercises the samplers properly.
        out = ex.tab12_srq_insertions(trhs=(500,), workloads=("mcf",),
                                      instructions=30_000)
        # paper: 12.5 / 100 ACTs uniform, ~half that with NUP
        assert out[500]["uniform"] == pytest.approx(12.5, rel=0.2)
        assert out[500]["nup"] == pytest.approx(
            out[500]["uniform"] / 2, rel=0.25)

    def test_tab4(self):
        out = ex.tab4_characteristics(**TINY)
        assert out["xalancbmk"]["mpki"] == pytest.approx(2.0, rel=0.15)

    def test_fig19(self):
        table = ex.fig19_chips(trhs=(500,), chip_counts=(1, 4), **TINY)
        assert len(table.columns) == 2

    def test_fig1(self):
        table = ex.fig1_overview(trhs=(1000, 500), **TINY)
        assert table.columns == ["prac", "mopac-c@1000", "mopac-c@500",
                                 "mopac-d@1000", "mopac-d@500"]
        assert "xalancbmk" in table.rows

    def test_fig18(self):
        table = ex.fig18_rowpress(trhs=(500,), **TINY)
        assert table.columns == ["mopac-c@500", "mopac-c@500+rp",
                                 "mopac-d@500", "mopac-d@500+rp"]
        assert "xalancbmk" in table.rows

    def test_tab15(self):
        out = ex.tab15_closure(policies=("open", "close"), trhs=(500,),
                               **TINY)
        assert set(out) == {"open", "close"}

    def test_stream_subset_empty_without_streams(self):
        table = ex.fig2_prac_slowdown(trhs=(500,), **TINY)
        assert ex.stream_subset(table) == {}


#: every simulation-backed driver, on a grid small enough for a test
DRIVERS = {
    "fig1": lambda: ex.fig1_overview(trhs=(500,), **TINY),
    "fig2": lambda: ex.fig2_prac_slowdown(trhs=(500,), **TINY),
    "fig9": lambda: ex.fig9_mopac_c(trhs=(500,), **TINY),
    "fig11": lambda: ex.fig11_mopac_d(trhs=(500,), **TINY),
    "fig12": lambda: ex.fig12_drain_sweep(trhs=(500,), drains=(0, 4),
                                          **TINY),
    "fig13": lambda: ex.fig13_srq_sweep(trhs=(500,), sizes=(8, 32), **TINY),
    "fig17": lambda: ex.fig17_nup(trhs=(500,), **TINY),
    "fig18": lambda: ex.fig18_rowpress(trhs=(500,), **TINY),
    "fig19": lambda: ex.fig19_chips(trhs=(500,), chip_counts=(1, 4),
                                    **TINY),
    "tab4": lambda: ex.tab4_characteristics(**TINY),
    "tab12": lambda: ex.tab12_srq_insertions(trhs=(500,), **TINY),
    "tab15": lambda: ex.tab15_closure(policies=("open", "close"),
                                      trhs=(500,), **TINY),
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_driver_resolves_its_grid_in_one_engine_run(driver, engine_runs):
    DRIVERS[driver]()
    assert len(engine_runs) == 1


class TestEnvKnobs:
    def test_default_workloads(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert ex.selected_workloads() == ex.FAST_WORKLOADS

    def test_full_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert len(ex.selected_workloads()) == 23

    def test_instruction_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
        assert ex.instruction_budget() == 1234
