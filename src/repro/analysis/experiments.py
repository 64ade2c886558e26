"""Experiment drivers: one function per paper table/figure.

Benchmarks, examples, and EXPERIMENTS.md all call these drivers so the
numbers they show come from a single place. Simulation-backed experiments
accept ``workloads`` and ``instructions`` so benches can run a fast
representative subset by default (environment variables ``REPRO_FULL=1``
and ``REPRO_INSTRUCTIONS=n`` widen them to the full suite).

Every simulation-backed driver builds its grid of design points once
and resolves it in one engine run: a slowdown table through
:func:`repro.sim.runner.slowdowns` (each point with its baseline),
Tables 4 and 12 through :func:`repro.exec.engine.run_points`. Points
fan out across worker processes and land in the in-process memo and the
persistent result cache (``REPRO_CACHE_DIR``). ``REPRO_WORKERS=1``
keeps every simulation inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import security
from ..dram.energy import instructions_of
from ..dram.timing import ddr5_base, ddr5_prac
from ..exec.env import env_flag, env_int
from ..exec.engine import run_points
from ..sim.runner import DesignPoint, slowdowns
from ..units import to_ns
from ..workloads.catalog import ALL_WORKLOADS, STREAM_NAMES

#: Fast representative subset: two streams, two latency-bound SPEC, one
#: hot-row-heavy, one low-MPKI, one mix, plus the "hammer" stress
#: workload that exercises the ALERT path at scaled run lengths.
FAST_WORKLOADS = ("add", "scale", "mcf", "parest", "omnetpp",
                  "xalancbmk", "mix1", "hammer")


def selected_workloads() -> tuple[str, ...]:
    """Workload list for simulation experiments (env-expandable)."""
    if env_flag("REPRO_FULL"):
        return ALL_WORKLOADS
    return FAST_WORKLOADS


def instruction_budget(default: int = 100_000) -> int:
    return env_int("REPRO_INSTRUCTIONS", default)


# ----------------------------------------------------------------------
# Analytical experiments (exact reproductions)
# ----------------------------------------------------------------------
def fig4_latency() -> dict[str, float]:
    """Figure 4: row-conflict read latency, baseline vs PRAC (ns)."""
    return {
        "baseline_ns": to_ns(ddr5_base().row_conflict_read_latency()),
        "prac_ns": to_ns(ddr5_prac().row_conflict_read_latency()),
    }


def tab2_moat_ath(trhs=(1000, 500, 250)) -> dict[int, int]:
    """Table 2: MOAT's ALERT threshold per T_RH."""
    return {trh: security.moat_ath(trh) for trh in trhs}


def tab5_budgets(trhs=(250, 500, 1000)) -> list[security.FailureBudget]:
    """Table 5: F and epsilon per threshold."""
    return [security.budget_for(trh) for trh in trhs]


def tab6_pe1_grid() -> dict:
    """Table 6: row failure probability vs C."""
    return security.table6()


def tab7_mopac_c(trhs=(250, 500, 1000)) -> list[security.MoPACParams]:
    """Table 7: MoPAC-C p / C / ATH*."""
    return [security.mopac_c_params(trh) for trh in trhs]


def tab8_mopac_d(trhs=(250, 500, 1000)) -> list[security.MoPACParams]:
    """Table 8: MoPAC-D A' / p / C / ATH* (+ drain-on-REF)."""
    return [security.mopac_d_params(trh) for trh in trhs]


def tab9_attacks_c(trhs=(250, 500, 1000)) -> list[security.AttackReport]:
    """Table 9: MoPAC-C multi-bank performance attack."""
    return [security.mopac_c_attack(trh) for trh in trhs]


def tab10_attacks_d(trhs=(250, 500, 1000)) -> dict[int, dict]:
    """Table 10: the three MoPAC-D performance attacks."""
    return {trh: security.mopac_d_attacks(trh) for trh in trhs}


def tab11_nup(trhs=(1000, 500, 250)) -> list[security.NUPParams]:
    """Table 11: ATH* with and without NUP."""
    return [security.mopac_d_nup_params(trh) for trh in trhs]


def tab13_tolerated() -> list[security.ToleratedRow]:
    """Table 13: tolerated T_RH for MoPAC-D / MINT / PrIDE."""
    return security.table13()


def tab14_rowpress(trhs=(500, 1000)) -> dict[int, dict[str, int]]:
    """Table 14: Row-Press-aware ATH*."""
    return {
        trh: {
            "mopac_c": security.mopac_c_rowpress_params(trh).ath_star,
            "mopac_d": security.mopac_d_rowpress_params(trh).ath_star,
        }
        for trh in trhs
    }


def fig14_alpha(trh: int = 500, trials: int = 20_000) -> float:
    """Section 7.2: Monte-Carlo estimate of the multi-bank factor alpha."""
    params = security.mopac_c_params(trh)
    return security.estimate_alpha(params.critical_updates, params.p,
                                   trials=trials)


# ----------------------------------------------------------------------
# Simulation experiments
# ----------------------------------------------------------------------
@dataclass
class SlowdownTable:
    """Per-workload slowdowns for several configurations."""

    label: str
    columns: list[str] = field(default_factory=list)
    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def add(self, workload: str, column: str, value: float) -> None:
        if column not in self.columns:
            self.columns.append(column)
        self.rows.setdefault(workload, {})[column] = value

    def column_average(self, column: str) -> float:
        values = [row[column] for row in self.rows.values()
                  if column in row]
        return sum(values) / len(values) if values else 0.0

    def averages(self) -> dict[str, float]:
        return {column: self.column_average(column)
                for column in self.columns}


#: one slowdown-table column: its label and the DesignPoint fields,
#: besides workload and instructions, of its points
Column = tuple[str, dict]


def _slowdown_table(label: str, columns: list[Column], workloads=None,
                    instructions=None) -> SlowdownTable:
    """Every workload's slowdown in every column, from one
    :func:`~repro.sim.runner.slowdowns` call over the grid."""
    workloads = workloads or selected_workloads()
    instructions = instructions or instruction_budget()
    grid = [(workload, column,
             DesignPoint(workload=workload, instructions=instructions,
                         **fields))
            for workload in workloads for column, fields in columns]
    table = SlowdownTable(label=label)
    values = slowdowns([point for _, _, point in grid])
    for (workload, column, _), value in zip(grid, values):
        table.add(workload, column, value)
    return table


def _at(design: str, trhs) -> list[Column]:
    """One ``design@trh`` column per T_RH."""
    return [(f"{design}@{trh}", dict(design=design, trh=trh))
            for trh in trhs]


#: the PRAC reference column of Figures 1(d), 9 and 11 and Table 15
_PRAC: Column = ("prac", dict(design="prac", trh=500))


def fig2_prac_slowdown(workloads=None, instructions=None,
                       trhs=(4000, 500, 100)) -> SlowdownTable:
    """Figure 2: PRAC slowdown at several thresholds (should be flat)."""
    return _slowdown_table("fig2", _at("prac", trhs), workloads,
                           instructions)


def fig9_mopac_c(workloads=None, instructions=None,
                 trhs=(1000, 500, 250)) -> SlowdownTable:
    """Figure 9: PRAC vs MoPAC-C at T_RH 1000/500/250."""
    return _slowdown_table("fig9", [_PRAC, *_at("mopac-c", trhs)],
                           workloads, instructions)


def fig11_mopac_d(workloads=None, instructions=None,
                  trhs=(1000, 500, 250)) -> SlowdownTable:
    """Figure 11: PRAC vs MoPAC-D at T_RH 1000/500/250."""
    return _slowdown_table("fig11", [_PRAC, *_at("mopac-d", trhs)],
                           workloads, instructions)


def fig1_overview(workloads=None, instructions=None,
                  trhs=(4000, 2000, 1000, 500, 250)) -> SlowdownTable:
    """Figure 1(d): average slowdown of PRAC vs MoPAC-C/D across T_RH."""
    columns = [_PRAC, *_at("mopac-c", trhs), *_at("mopac-d", trhs)]
    return _slowdown_table("fig1d", columns, workloads, instructions)


def _mopac_d_knob(knob: str, label: str, trhs, values) -> list[Column]:
    """MoPAC-D at each T_RH with ``knob`` at each value."""
    return [(f"trh{trh}/{label}{value}",
             {"design": "mopac-d", "trh": trh, knob: value})
            for trh in trhs for value in values]


def fig12_drain_sweep(workloads=None, instructions=None,
                      trhs=(1000, 500, 250),
                      drains=(0, 1, 2, 4)) -> SlowdownTable:
    """Figure 12: MoPAC-D slowdown vs drain-on-REF rate."""
    columns = _mopac_d_knob("drain_on_ref", "drain", trhs, drains)
    return _slowdown_table("fig12", columns, workloads, instructions)


def fig13_srq_sweep(workloads=None, instructions=None,
                    trhs=(1000, 500, 250),
                    sizes=(8, 16, 32)) -> SlowdownTable:
    """Figure 13: MoPAC-D slowdown vs SRQ size."""
    columns = _mopac_d_knob("srq_size", "srq", trhs, sizes)
    return _slowdown_table("fig13", columns, workloads, instructions)


def fig17_nup(workloads=None, instructions=None,
              trhs=(1000, 500, 250)) -> SlowdownTable:
    """Figure 17: MoPAC-D with and without NUP."""
    columns = []
    for trh in trhs:
        columns.append((f"uniform@{trh}", dict(design="mopac-d", trh=trh)))
        columns.append((f"nup@{trh}", dict(design="mopac-d-nup", trh=trh)))
    return _slowdown_table("fig17", columns, workloads, instructions)


def tab12_srq_insertions(workloads=None, instructions=None,
                         trhs=(1000, 500, 250)) -> dict:
    """Table 12: SRQ insertions per 100 ACTs, uniform vs NUP."""
    workloads = workloads or selected_workloads()
    instructions = instructions or instruction_budget()
    designs = (("uniform", "mopac-d"), ("nup", "mopac-d-nup"))
    grid = [(trh, label, DesignPoint(workload=workload, design=design,
                                     trh=trh, instructions=instructions))
            for trh in trhs for workload in workloads
            for label, design in designs]
    rates: dict[int, dict[str, list[float]]] = {
        trh: {label: [] for label, _ in designs} for trh in trhs}
    for (trh, label, _), result in zip(
            grid, run_points([point for _, _, point in grid])):
        policies = range(result.config.dram.subchannels)
        acts = sum(result.stats[f"mitigation.{sc}.activations"]
                   for sc in policies)
        ins = sum(result.stats[f"mitigation.{sc}.srq_insertions"]
                  for sc in policies)
        if acts:
            rates[trh][label].append(100.0 * ins / acts)
    return {trh: {label: (sum(vals) / len(vals) if vals else 0.0)
                  for label, vals in by_label.items()}
            for trh, by_label in rates.items()}


def fig18_rowpress(workloads=None, instructions=None,
                   trhs=(1000, 500)) -> SlowdownTable:
    """Figure 18: slowdowns with Row-Press-aware ATH* (Appendix A)."""
    columns = [(f"{design}@{trh}{'+rp' if rp else ''}",
                dict(design=design, trh=trh, rowpress=rp))
               for trh in trhs for design in ("mopac-c", "mopac-d")
               for rp in (False, True)]
    return _slowdown_table("fig18", columns, workloads, instructions)


def fig19_chips(workloads=None, instructions=None,
                trhs=(250, 500, 1000),
                chip_counts=(1, 2, 4, 8, 16)) -> SlowdownTable:
    """Figure 19: MoPAC-D sensitivity to the number of chips (App. B)."""
    columns = _mopac_d_knob("chips", "chips", trhs, chip_counts)
    return _slowdown_table("fig19", columns, workloads, instructions)


def tab15_closure(workloads=None, instructions=None,
                  policies=("open", "close", "ton100", "ton200"),
                  trhs=(1000, 500, 250)) -> dict:
    """Table 15: PRAC and MoPAC-D under different row-closure policies."""
    designs = [_PRAC, *_at("mopac-d", trhs)]
    table = _slowdown_table(
        "tab15", [(f"{policy}/{label}", dict(fields, page_policy=policy))
                  for policy in policies for label, fields in designs],
        workloads, instructions)
    return {policy: {label: table.column_average(f"{policy}/{label}")
                     for label, _ in designs}
            for policy in policies}


def tab4_characteristics(workloads=None, instructions=None) -> dict:
    """Table 4: measured workload characteristics of the synthetic suite."""
    workloads = workloads or selected_workloads()
    instructions = instructions or instruction_budget()
    out = {}
    results = run_points([DesignPoint(workload=workload, design="baseline",
                                      instructions=instructions,
                                      collect_row_activity=True)
                          for workload in workloads])
    for workload, result in zip(workloads, results):
        out[workload] = {
            "mpki": 1000.0 * result.total_requests / instructions_of(result),
            "rbhr": result.row_buffer_hit_rate,
            **{column: result.stats[f"sim.row_activity.{column}"]
               for column in ("apri", "act64", "act200")},
        }
    return out


def stream_subset(table: SlowdownTable) -> dict[str, float]:
    """Average of each column over the STREAM workloads present."""
    out = {}
    for column in table.columns:
        values = [row[column] for name, row in table.rows.items()
                  if name in STREAM_NAMES and column in row]
        if values:
            out[column] = sum(values) / len(values)
    return out
