"""DDR5 timing sets (paper Table 1).

A :class:`TimingSet` is an immutable bundle of the DRAM timing constraints
the simulator enforces. Two canonical sets are provided:

* :func:`ddr5_base` — DDR5-6000AN without PRAC,
* :func:`ddr5_prac` — the same device with PRAC's inflated timings
  (JESD79-5C): tRP 14 ns -> 36 ns, tRCD 14 ns -> 16 ns, tRAS 32 ns -> 16 ns,
  so tRC rises 46 ns -> 52 ns.

MoPAC-C uses *both*: normal precharges finish in ``ddr5_base`` time while
counter-update precharges (PREcu) pay the PRAC precharge latency. The
:class:`MoPACTimings` helper pairs the two sets and exposes the per-command
choice. MoPAC-D runs entirely on ``ddr5_base`` timings (counter updates are
paid for with ABO/REF time instead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..units import ns, to_ns


@dataclass(frozen=True)
class TimingSet:
    """DRAM timing constraints, all in integer picoseconds.

    Attributes mirror the JEDEC names used in paper Table 1 plus the handful
    of additional constraints needed for a working controller (CAS latency,
    burst time, ACT-to-ACT spacing).
    """

    name: str
    tRCD: int  #: ACT -> column command
    tRP: int  #: PRE -> next ACT (the PRAC pain point)
    tRAS: int  #: ACT -> PRE (minimum row-open time)
    tRC: int  #: ACT -> next ACT, same bank
    tREFW: int  #: refresh window (retention period)
    tREFI: int  #: average interval between REF commands
    tRFC: int  #: all-bank REF execution time
    tRFCsb: int  #: same-bank REF execution time (one bank unavailable)
    tCAS: int  #: column command -> data (read latency component)
    tBURST: int  #: data-bus occupancy of one burst (BL16)
    tRRD: int  #: ACT -> ACT, different banks
    tFAW: int  #: rolling four-activation window per sub-channel
    tWR: int  #: write recovery before PRE
    tALERT_NORMAL: int  #: post-ALERT window where the MC may keep operating
    tALERT_RFM: int  #: RFM execution time under ABO
    tPRACU: int  #: per-row PRAC read-modify-write time under ABO/REF (70 ns)

    def __post_init__(self) -> None:
        if self.tRC != self.tRAS + self.tRP:
            raise ValueError(
                f"{self.name}: tRC ({to_ns(self.tRC)} ns) must equal "
                f"tRAS + tRP ({to_ns(self.tRAS + self.tRP)} ns)"
            )
        for field in (
            "tRCD", "tRP", "tRAS", "tRC", "tREFW", "tREFI", "tRFC",
            "tCAS", "tBURST", "tRRD", "tFAW", "tWR",
        ):
            if getattr(self, field) <= 0:
                raise ValueError(f"{self.name}: {field} must be positive")

    @property
    def alert_stall(self) -> int:
        """Total DRAM-unavailable time per ABO episode (paper: 350 ns)."""
        return self.tALERT_RFM

    @property
    def alert_total(self) -> int:
        """Total ALERT wall time: normal window + RFM stall (530 ns)."""
        return self.tALERT_NORMAL + self.tALERT_RFM

    @property
    def refs_per_refw(self) -> int:
        """Number of REF commands in one refresh window."""
        return self.tREFW // self.tREFI

    def row_conflict_read_latency(self) -> int:
        """Latency to serve a read that conflicts with an open row.

        Paper Figure 4: PRE + ACT + RD = 14 + 14 + 12 = 40 ns for the
        baseline and 62 ns with PRAC (the paper's figure keeps tRCD at
        14 ns; with PRAC's tRCD of 16 ns the value is 64 ns).
        """
        return self.tRP + self.tRCD + self.tCAS

    def scaled_refresh(self, scale: float) -> "TimingSet":
        """Return a copy with the refresh window shrunk by ``scale``.

        Scaled-down runs keep every other timing identical, tREFI
        included, and replace only tREFW with ``int(tREFW * scale)``,
        floored at one tREFI. A scaled window therefore holds ``scale``
        times as many REF commands as the paper's, so refresh-window-
        relative statistics (APRI, hot-row counts, drain-on-REF rates)
        converge in far fewer simulated instructions. ``scale=1`` is the
        paper setup; ``scale`` outside (0, 1] raises ``ValueError``.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        return replace(
            self,
            name=f"{self.name}@x{scale:g}",
            tREFW=max(int(self.tREFW * scale), self.tREFI),
        )


def ddr5_base() -> TimingSet:
    """DDR5-6000AN timings without PRAC (paper Table 1, 'Base' column)."""
    return TimingSet(
        name="DDR5-6000AN",
        tRCD=ns(14),
        tRP=ns(14),
        tRAS=ns(32),
        tRC=ns(46),
        tREFW=ns(32_000_000),  # 32 ms
        tREFI=ns(3900),
        tRFC=ns(410),
        tRFCsb=ns(130),
        tCAS=ns(12),
        tBURST=ns(2.667),  # BL16 at 6000 MT/s
        tRRD=ns(2.5),
        tFAW=ns(13.333),
        tWR=ns(15),
        tALERT_NORMAL=ns(180),
        tALERT_RFM=ns(350),
        tPRACU=ns(70),
    )


#: PRAC timing inflation over the base device (paper Table 1 deltas):
#: the per-row counter read-modify-write lengthens the precharge by
#: 22 ns and the whole row cycle by 6 ns, and the updated counter adds
#: 2 ns before the first column command; the row-open window absorbs
#: the rest (tRAS' = tRC' - tRP').
PRAC_TRP_DELTA = ns(22)
PRAC_TRCD_DELTA = ns(2)
PRAC_TRC_DELTA = ns(6)


def derive_prac(base: TimingSet, name: str | None = None) -> TimingSet:
    """PRAC-inflated variant of an arbitrary base timing set.

    Applies the Table 1 deltas (tRP +22 ns, tRCD +2 ns, tRC +6 ns) and
    rebalances tRAS to keep the ``tRC == tRAS + tRP`` identity. Devices
    whose row cycle is too short to absorb the longer precharge have no
    PRAC variant; that surfaces as a :class:`ValueError` here rather
    than as a negative tRAS downstream.
    """
    trp = base.tRP + PRAC_TRP_DELTA
    trc = base.tRC + PRAC_TRC_DELTA
    tras = trc - trp
    if tras <= 0:
        raise ValueError(
            f"{base.name}: tRC {to_ns(base.tRC)} ns too short for PRAC "
            f"(derived tRAS would be {to_ns(tras)} ns)")
    return replace(
        base,
        name=name or f"{base.name}+PRAC",
        tRCD=base.tRCD + PRAC_TRCD_DELTA,
        tRP=trp,
        tRAS=tras,
        tRC=trc,
    )


def ddr5_prac() -> TimingSet:
    """DDR5 timings with PRAC counter-update overheads (Table 1, 'PRAC')."""
    return derive_prac(ddr5_base(), name="DDR5-6000AN+PRAC")


@dataclass(frozen=True)
class MoPACTimings:
    """The timing pair used by MoPAC-C.

    ``normal`` governs activations closed with a plain PRE; ``counter_update``
    governs activations the memory controller selected (with probability p)
    to be closed with PREcu. The paper, Section 5.1: "PRE uses a longer tRAS,
    whereas PREcu uses a shorter tRAS".
    """

    normal: TimingSet
    counter_update: TimingSet

    @staticmethod
    def default() -> "MoPACTimings":
        return MoPACTimings(normal=ddr5_base(), counter_update=ddr5_prac())

    def for_update(self, update: bool) -> TimingSet:
        """Timing set governing a row-open episode."""
        return self.counter_update if update else self.normal
