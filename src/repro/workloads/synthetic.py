"""Synthetic trace generation from a :class:`WorkloadSpec`.

The generator produces an endless stream of :class:`TraceItem` accesses
whose aggregate statistics (MPKI, row-buffer behaviour, hot-row activation
counts) approximate the paper's Table 4 workloads:

* **gaps** between misses are geometric with the spec's MPKI mean;
* **stream** accesses advance a sequential cursor in runs of
  ``run_lines`` consecutive cache lines (MOP then spreads each run over
  rows/banks exactly like real streaming code);
* **random** accesses pick a uniform line in the footprint;
* **hot** accesses target a small set of per-core rows, addressed through
  the *inverse* DRAM mapping so a hot row is a genuine DRAM row no matter
  the address-mapping scheme. Hot accesses cycle among the hot set so each
  visit conflicts with the previously open row — this is what produces the
  ACT-64+ / ACT-200+ rows the trackers must catch.

Every core gets its own seeded stream plus a private address offset so
rate-mode copies do not alias to the same rows.
"""

from __future__ import annotations

import random
from math import log as _math_log
from typing import Iterator

from ..config import DRAMConfig
from ..cpu.trace import TraceItem
from ..rng import derive_seed
from .catalog import WorkloadSpec


def inverse_map_line(config: DRAMConfig, subchannel: int, bank: int,
                     row: int, column: int = 0) -> int:
    """Linear line index of (subchannel, bank, row, column) under MOP.

    Inverse of :meth:`repro.dram.address.MOPMapper.map_line`.
    """
    mop = config.mop_lines
    group, offset = divmod(column, mop)
    rest = group
    rest = rest * config.rows_per_bank + row
    rest = rest * config.subchannels + subchannel
    rest = rest * config.banks_per_subchannel + bank
    return rest * mop + offset


class TraceGenerator:
    """Endless per-core synthetic trace."""

    def __init__(self, spec: WorkloadSpec, config: DRAMConfig,
                 core_id: int = 0, seed: int = 0x7ACE):
        self.spec = spec
        self.config = config
        self.rng = random.Random(
            derive_seed((seed << 8) ^ core_id, spec.name))
        total_lines = (config.total_banks * config.rows_per_bank
                       * config.lines_per_row)
        self.footprint = min(spec.footprint_lines, total_lines)
        # Private slice of the address space per core.
        self.base_line = (core_id * 2 * self.footprint) % total_lines
        self._cursor = self.rng.randrange(self.footprint)
        self._run_left = 0
        self._hot_lines = self._build_hot_set(core_id)
        self._hot_index = 0
        # Spec/config lookups cached once: ``mean_gap`` is a computed
        # property and the others are attribute chains, all re-read per
        # generated item on the simulator's hottest path. The cached
        # values feed the *same* expressions, so the stream is
        # bit-identical to reading them live (specs are frozen).
        self._mean_gap = spec.mean_gap
        self._gap_shape = spec.gap_shape
        self._gap_scale = (-(self._mean_gap / spec.gap_shape)
                           if spec.gap_shape else 0.0)
        self._gap_const = round(self._mean_gap)
        self._write_fraction = spec.write_fraction
        self._hot_fraction = spec.hot_fraction
        self._stream_weight = spec.stream_weight
        self._run_lines = spec.run_lines
        self._line_bytes = config.line_bytes
        self._mop_lines = config.mop_lines

    def _build_hot_set(self, core_id: int) -> list[int]:
        """Pick the spec's hot rows as concrete (bank, row) locations.

        Hot rows are placed in same-bank *pairs*: with an open-page policy
        a lone hot row would be activated once and then serve every later
        access as a row hit, but two hot rows thrashing one bank conflict
        on every visit — which is what makes a row "hot" in the
        activation-count sense of Table 4's ACT-64+ column.
        """
        cfg = self.config
        lines = []
        for i in range(self.spec.hot_rows):
            pair = i // 2
            subchannel = (core_id + pair) % cfg.subchannels
            bank = (core_id * 5 + pair * 3) % cfg.banks_per_subchannel
            row = (1000 + core_id * 97 + i * 13) % cfg.rows_per_bank
            lines.append(inverse_map_line(cfg, subchannel, bank, row))
        return lines

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceItem]:
        # The generator *is* its own iterator: all draw state lives on
        # self, so a wrapping generator frame would add a call per item
        # without isolating anything.
        return self

    def __next__(self) -> TraceItem:
        return self.next_item()

    def next_item(self) -> TraceItem:
        return TraceItem(*self.next_block(1)[0])

    def next_block(self, n: int) -> list[tuple[int, int, bool]]:
        """Draw the next ``n`` accesses as raw ``(gap, address, is_write)``.

        This is the one draw code: :meth:`next_item` takes a block of
        one, and the core stages its trace in blocks. The stream does
        not depend on the block sizes it is drawn in.
        """
        rng = self.rng
        uniform = rng.random
        randrange = rng.randrange
        log = _math_log
        mean = self._mean_gap
        k = self._gap_shape
        scale = self._gap_scale
        gap_const = self._gap_const
        write_fraction = self._write_fraction
        hot = self._hot_fraction
        stream_weight = self._stream_weight
        run_lines = self._run_lines
        line_bytes = self._line_bytes
        footprint = self.footprint
        base_line = self.base_line
        out = []
        append = out.append
        for _ in range(n):
            if mean <= 0:
                gap = 0
            elif k == 0:
                # Deterministic gaps: streaming kernels miss like
                # clockwork, which is what lets them saturate bandwidth
                # (and what makes them insensitive to PRAC latency,
                # Figure 2).
                gap = gap_const
            else:
                # Erlang-k keeps the MPKI mean while tuning burstiness:
                # k = 1 is geometric (pointer chasing), larger k smooths
                # the stream.
                total = 0.0
                for _ in range(k):
                    v = 1.0 - uniform()
                    total += scale * log(v if v > 1e-12 else 1e-12)
                gap = int(total)
            if hot and uniform() < hot:
                line = self._next_hot_line()
            elif self._run_left > 0:
                self._run_left -= 1
                self._cursor = cursor = (self._cursor + 1) % footprint
                line = base_line + cursor
            elif uniform() < stream_weight:
                self._run_left = run_lines - 1
                self._cursor = cursor = (self._cursor + 1) % footprint
                line = base_line + cursor
            else:
                self._cursor = cursor = randrange(footprint)
                line = base_line + cursor
            append((gap, line * line_bytes, uniform() < write_fraction))
        return out

    def _next_hot_line(self) -> int:
        # Cycle the hot set so consecutive hot accesses hit different rows
        # (each visit is a fresh activation, like a pointer-chasing loop
        # over a hot working set slightly larger than the row buffers).
        line = self._hot_lines[self._hot_index]
        self._hot_index = (self._hot_index + 1) % len(self._hot_lines)
        # Touch a random column so hot rows still see some locality.
        return line + self.rng.randrange(self._mop_lines)


def generate_trace(spec: WorkloadSpec, config: DRAMConfig,
                   accesses: int, core_id: int = 0,
                   seed: int = 0x7ACE) -> list[TraceItem]:
    """Materialise a finite trace (mostly for tests and examples)."""
    gen = TraceGenerator(spec, config, core_id, seed)
    return [TraceItem(*raw) for raw in gen.next_block(accesses)]
