"""DDR5 energy model (extension beyond the paper's evaluation).

PRAC's counter read-modify-write does not just cost time: every inflated
precharge burns extra array energy. This module post-processes the
counters a finished simulation already collected (activations, column
accesses, counter-update precharges, refreshes, ALERT episodes) into
energy, using an IDD-style per-operation model with DDR5-class constants.

The absolute joules are indicative (vendor IDD values are NDA'd); the
*relative* comparison — PRAC pays the counter-update energy on every
activation, MoPAC-C on a p-fraction, MoPAC-D only on drains — is the
point, benched in ``benchmarks/bench_extension_energy.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.system import SystemResult

#: Per-operation energy constants (nanojoules), DDR5-class estimates.
ACT_PRE_NJ = 2.2  #: one activate/precharge pair (row cycle)
RD_NJ = 1.4  #: one read burst (BL16, x64 equivalent)
WR_NJ = 1.5  #: one write burst
COUNTER_UPDATE_NJ = 1.1  #: PRAC read-modify-write of the counter word
REF_NJ = 28.0  #: one all-bank REF command
RFM_NJ = 14.0  #: one RFM (mitigation service window)
BACKGROUND_MW = 120.0  #: standby/background power per sub-channel (mW)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy by source, in millijoules."""

    activate_mj: float
    read_mj: float
    write_mj: float
    counter_update_mj: float
    refresh_mj: float
    rfm_mj: float
    background_mj: float

    @property
    def total_mj(self) -> float:
        return (self.activate_mj + self.read_mj + self.write_mj
                + self.counter_update_mj + self.refresh_mj + self.rfm_mj
                + self.background_mj)

    @property
    def counter_update_share(self) -> float:
        total = self.total_mj
        return self.counter_update_mj / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "activate": self.activate_mj, "read": self.read_mj,
            "write": self.write_mj,
            "counter_update": self.counter_update_mj,
            "refresh": self.refresh_mj, "rfm": self.rfm_mj,
            "background": self.background_mj, "total": self.total_mj,
        }


def energy_of(result: SystemResult) -> EnergyBreakdown:
    """Energy breakdown of a finished run."""
    acts = result.total_activations
    reads = result.total("reads")
    writes = result.total("writes")
    refreshes = result.total("refreshes")
    alerts = result.total_alerts
    updates = result.stats["mitigation.counter_updates"]
    seconds = result.elapsed_ps / 1e12
    subchannels = result.config.dram.subchannels
    nj = 1e-6  # nanojoule -> millijoule
    return EnergyBreakdown(
        activate_mj=acts * ACT_PRE_NJ * nj,
        read_mj=reads * RD_NJ * nj,
        write_mj=writes * WR_NJ * nj,
        counter_update_mj=updates * COUNTER_UPDATE_NJ * nj,
        refresh_mj=refreshes * REF_NJ * nj,
        rfm_mj=alerts * RFM_NJ * nj,
        background_mj=BACKGROUND_MW * seconds * subchannels,
    )


def instructions_of(result: SystemResult) -> int:
    """Instructions retired by every core of a run."""
    return sum(result.stats[f"core.{i}.instructions"]
               for i in range(result.config.cores))


def energy_overhead(result: SystemResult,
                    baseline: SystemResult) -> float:
    """Relative total-energy overhead vs a baseline run.

    Uses energy *per retired instruction* so runs of slightly different
    wall time compare fairly.
    """
    return energy_overhead_of(
        energy_of(result).total_mj, instructions_of(result),
        energy_of(baseline).total_mj, instructions_of(baseline))


def energy_overhead_of(energy_mj: float, instructions: int,
                       baseline_mj: float,
                       baseline_instructions: int) -> float:
    """:func:`energy_overhead` from the runs' totals alone."""
    if not instructions or not baseline_instructions:
        return 0.0
    epi = energy_mj / instructions
    epi_base = baseline_mj / baseline_instructions
    return epi / epi_base - 1.0
