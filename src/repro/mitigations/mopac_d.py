"""MoPAC-D: completely in-DRAM probabilistic counting (Sections 6 and 8).

Each DRAM chip keeps, per bank:

* a MINT sampler — exactly one activation is selected in every window of
  1/p activations (paper footnote 6 explains why PARA-style Bernoulli
  sampling would be insecure here); the selected row is inserted into the
  SRQ only at the *end* of the window;
* a *Selected Row Queue* (SRQ, default 16 entries) buffering rows awaiting
  their PRAC counter update. Each entry carries ACtr (activations suffered
  while buffered — the tardiness counter) and SCtr (how many times the row
  was selected, so coalesced selections cost a single update);
* the PRAC counters + MOAT tracker of :mod:`repro.mitigations.prac_state`.

The memory controller never sees any of this: all episodes run at baseline
timings. Counter updates are paid for with stolen time — ``drain_on_ref``
entries at every REF, five entries per ABO otherwise. ALERT fires when
(1) a drained counter reaches ATH* (mitigation), (2) the SRQ fills, or
(3) a buffered row's ACtr reaches the tardiness threshold TTH.

NUP (Section 8): when the selected row's PRAC counter is zero the selection
is accepted with probability 1/2 only, halving insertions for cold rows;
ATH* shrinks per the Markov-chain analysis (Table 11).

Appendix B: a DIMM has several chips whose samplers are *not* synchronised;
``chips`` > 1 instantiates independent per-chip state, and the sub-channel
ALERT is the OR over chips.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..dram.timing import TimingSet, ddr5_base
from ..units import ns
from ..security.csearch import (DEFAULT_TTH, MoPACParams,
                                drain_on_ref_default, mopac_d_params)
from ..security.rowpress import ROWPRESS_TON_CAP_NS
from .base import EpisodeDecision, MitigationPolicy
from .prac_state import PRACCounters

#: SRQ entries drained per ABO (each row update takes 70 ns of the 350 ns).
SRQ_DRAIN_PER_ABO = 5

#: Default SRQ capacity (Section 6.1): 16 entries x 3 bytes = 48 B per bank.
DEFAULT_SRQ_SIZE = 16


@dataclass
class SRQEntry:
    """One Selected-Row-Queue entry: the row plus its two counters."""

    row: int
    actr: int = 0  #: activations to the row while buffered (tardiness)
    sctr: int = 1  #: number of selections coalesced into this entry


@dataclass
class MintSampler:
    """MINT: select exactly one activation per window of ``window`` ACTs."""

    window: int
    rng: random.Random
    index: int = 0
    slot: int = field(init=False)
    candidate: int | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self.slot = self.rng.randrange(self.window)

    def observe(self, row: int) -> int | None:
        """Feed one activation; returns the selected row at window end."""
        if self.index == self.slot:
            self.candidate = row
        self.index += 1
        if self.index < self.window:
            return None
        selected, self.candidate = self.candidate, None
        self.index = 0
        self.slot = self.rng.randrange(self.window)
        return selected


@dataclass
class ParaSampler:
    """PARA-style sampling: Bernoulli(1/window) per activation.

    Included for the footnote-6 ablation: the paper argues PARA selection
    is *insecure* for MoPAC-D because the number of activations between
    selections is unbounded — after an SRQ-full ABO the attacker can keep
    hammering through every unlucky stretch, whereas MINT guarantees a
    selection every window. ``tests/mitigations/test_sampler_ablation.py``
    and ``benchmarks/bench_ablation_sampler.py`` measure the difference.
    """

    window: int
    rng: random.Random

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def observe(self, row: int) -> int | None:
        if self.rng.random() < 1.0 / self.window:
            return row
        return None


class _ChipState:
    """Per-chip MoPAC-D state: counters, samplers, SRQs."""

    def __init__(self, banks: int, rows: int, window: int,
                 srq_size: int, rng: random.Random, sampler: str = "mint"):
        self.prac = PRACCounters(banks, rows)
        sampler_cls = {"mint": MintSampler, "para": ParaSampler}[sampler]
        self.samplers = [sampler_cls(window, rng) for _ in range(banks)]
        self.srqs: list[dict[int, SRQEntry]] = [{} for _ in range(banks)]
        self.srq_size = srq_size
        self.rng = rng


class MoPACDPolicy(MitigationPolicy):
    """MoPAC-D with optional NUP and multi-chip modelling."""

    name = "mopac-d"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 p: float | None = None, srq_size: int = DEFAULT_SRQ_SIZE,
                 tth: int = DEFAULT_TTH, drain_on_ref: int | None = None,
                 nup: bool = False, chips: int = 1,
                 refresh_groups: int = 8192,
                 timing: TimingSet | None = None,
                 rng: random.Random | None = None,
                 params: MoPACParams | None = None,
                 sampler: str = "mint", rowpress_aware: bool = False,
                 abo_level: int = 1, rowpress: bool = False):
        super().__init__(timing or ddr5_base(), banks, rows, refresh_groups)
        if abo_level not in (1, 2, 4):
            raise ValueError("abo_level must be 1, 2 or 4 (JEDEC menu)")
        self.abo_level = abo_level
        if trh <= 0:
            raise ValueError("trh must be positive")
        if srq_size < SRQ_DRAIN_PER_ABO:
            raise ValueError("srq_size must be at least the ABO drain count")
        if chips < 1:
            raise ValueError("chips must be >= 1")
        if drain_on_ref is not None and drain_on_ref < 0:
            raise ValueError("drain_on_ref must be >= 0")
        self.trh = trh
        self.nup = nup
        if nup:
            self.name = "mopac-d-nup"
        self.params = params or mopac_d_params(trh, p, tth, nup=nup,
                                               rowpress=rowpress)
        self.p = self.params.p
        self.inv_p = round(1 / self.p)
        self.ath_star = self.params.ath_star
        self.eth_star = max(self.ath_star // 2, 1)
        self.tth = tth
        self.drain_on_ref = (drain_on_ref if drain_on_ref is not None
                             else drain_on_ref_default(trh))
        if sampler not in ("mint", "para"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.sampler_kind = sampler
        rng = rng or random.Random(0x40D0)
        self.chips = [
            _ChipState(banks, rows, self.inv_p, srq_size,
                       random.Random(rng.getrandbits(64)), sampler)
            for _ in range(chips)
        ]
        self.banks = banks
        self.rowpress_aware = rowpress_aware

    # ------------------------------------------------------------------
    # Activation path — baseline timings, in-DRAM sampling
    # ------------------------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        for chip in self.chips:
            self._chip_activate(chip, bank, row)
        return self._plain_decision

    def _chip_activate(self, chip: _ChipState, bank: int, row: int) -> None:
        srq = chip.srqs[bank]
        entry = srq.get(row)
        if entry is not None:
            entry.actr += 1
            if entry.actr >= self.tth:
                self.alert_causes.add("tardiness")
                self._alert = True
        selected = chip.samplers[bank].observe(row)
        if selected is None:
            return
        if self.nup and chip.prac.value(bank, selected) == 0 \
                and chip.rng.random() < 0.5:
            return  # cold row: effective probability p/2
        self._insert(chip, bank, selected)

    def _insert(self, chip: _ChipState, bank: int, row: int) -> None:
        srq = chip.srqs[bank]
        entry = srq.get(row)
        if entry is not None:
            entry.sctr += 1  # coalesce into the existing entry
            self.stats.srq_insertions += 1
            return
        if len(srq) >= chip.srq_size:
            # Should be drained before this point; assert ALERT and drop.
            self.alert_causes.add("srq_full")
            self._alert = True
            return
        srq[row] = SRQEntry(row)
        self.stats.srq_insertions += 1
        if len(srq) >= chip.srq_size:
            self.alert_causes.add("srq_full")
            self._alert = True

    def note_row_open(self, bank: int, row: int, open_ps: int) -> None:
        """Appendix A: long row-open episodes charge extra damage.

        If the closing row is buffered in the SRQ, its SCtr grows by
        ceil(tON / 180 ns) - 1 *additional* units (the base selection
        already accounts for one activation of damage), so the eventual
        PRAC-counter update reflects the Row-Press amplification.
        """
        if not self.rowpress_aware:
            return
        extra = math.ceil(open_ps / ns(ROWPRESS_TON_CAP_NS)) - 1
        if extra <= 0:
            return
        for chip in self.chips:
            entry = chip.srqs[bank].get(row)
            if entry is not None:
                entry.sctr += extra

    # ------------------------------------------------------------------
    # Maintenance path
    # ------------------------------------------------------------------
    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        # every chip refreshes the same rows: one schedule serves all
        for chip in self.chips:
            chip.prac.refresh_rows(bank, start, stop)

    def on_refresh(self, now: int, bank: int | None = None) -> None:
        super().on_refresh(now, bank)
        if self.drain_on_ref:
            # each chip then drains its own SRQs under the REF
            banks = range(self.banks) if bank is None else (bank,)
            for chip in self.chips:
                for index in banks:
                    self._drain(chip, index, self.drain_on_ref, now,
                                on_ref=True)

    def _serve_rfm(self, now: int) -> bool:
        """Service one RFM: drain SRQs or mitigate, per Section 6.1.

        With ``abo_level`` > 1 the harness calls this several times per
        ALERT; the cause is attributed once (follow-up RFMs of the same
        episode find the cause set empty).
        """
        causes = self.alert_causes
        if causes:
            if "srq_full" in causes:
                self.stats.alerts_srq_full += 1
            elif "tardiness" in causes:
                self.stats.alerts_tardiness += 1
            else:
                self.stats.alerts_mitigation += 1
        causes.clear()
        for chip in self.chips:
            for bank in range(chip.prac.banks):
                self._service_bank(chip, bank, now)
        return bool(causes)

    def _service_bank(self, chip: _ChipState, bank: int, now: int) -> None:
        srq = chip.srqs[bank]
        tracker = chip.prac.tracker(bank)
        if len(srq) >= chip.srq_size:
            self._drain(chip, bank, SRQ_DRAIN_PER_ABO, now)
        elif tracker.valid and tracker.value >= self.ath_star:
            self._mitigate(chip, bank, now)
        elif srq:
            self._drain(chip, bank, SRQ_DRAIN_PER_ABO, now)
        elif tracker.valid and tracker.value >= self.eth_star:
            self._mitigate(chip, bank, now)

    def _drain(self, chip: _ChipState, bank: int, count: int, now: int,
               on_ref: bool = False) -> None:
        """Perform counter updates for up to ``count`` SRQ entries.

        Entries with the highest ACtr (most at-risk of tardiness) first.
        Each update increments the PRAC counter by 1 + SCtr / p: the "1"
        accounts for the activation that performs the write (Section 6.4).
        """
        srq = chip.srqs[bank]
        if not srq:
            return
        victims = sorted(srq.values(), key=lambda e: -e.actr)[:count]
        for entry in victims:
            del srq[entry.row]
            increment = 1 + entry.sctr * self.inv_p
            value = chip.prac.update(bank, entry.row, increment)
            self.security.on_counter_update(bank, entry.row, value)
            self.stats.counter_updates += 1
            if self.tracer is not None:
                self.tracer.record(now, "DRAIN", self.tracer_subchannel,
                                   bank, entry.row,
                                   "ref" if on_ref else "rfm")
            if on_ref:
                self.stats.ref_drains += 1
            if value >= self.ath_star:
                self.alert_causes.add("mitigation")
                self._alert = True

    def _mitigate(self, chip: _ChipState, bank: int, now: int) -> None:
        row = chip.prac.mitigate(bank)
        if row is not None:
            self._record_mitigation(bank, row, now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        return max(chip.prac.value(bank, row) for chip in self.chips)

    def srq_occupancy(self, bank: int, chip_index: int = 0) -> int:
        return len(self.chips[chip_index].srqs[bank])

    def buffered_rows(self, bank: int, chip_index: int = 0) -> list[int]:
        return list(self.chips[chip_index].srqs[bank])
