"""Physical address mapping.

The paper uses the *Minimalist Open Page* (MOP) mapping [Kaseridis+,
MICRO'11] with 4 lines per row: a small number of consecutive cache lines
stay in the same row (to harvest spatial locality as row-buffer hits) and
the next group of lines moves to a different bank (to harvest bank-level
parallelism). Bit layout, from least-significant line-address bits upward:

    [mop offset within row] [bank] [subchannel] [row] [remaining column]

so a linear sweep touches ``mop_lines`` lines in a row, then the same MOP
slot of the next bank, round-robins all banks and sub-channels, and only
then advances to the next row chunk.

A classic fully open-page mapping (whole row contiguous) is also provided
for comparison experiments.
"""

from __future__ import annotations

from ..config import DRAMConfig
from .commands import BankAddress, LineAddress


class AddressMapper:
    """Base interface: map a linear line index to a DRAM location.

    Geometry divisors are cached at construction: ``map_line`` runs once
    per simulated LLC miss, and :class:`~repro.config.DRAMConfig` is a
    frozen dataclass, so re-deriving them per call buys nothing.
    """

    def __init__(self, config: DRAMConfig):
        self.config = config
        self._total_lines = (config.total_banks * config.rows_per_bank
                             * config.lines_per_row)
        self._line_bytes = config.line_bytes

    def map_line(self, line_index: int) -> LineAddress:
        raise NotImplementedError

    def map_line_raw(self, line_index: int) -> tuple[int, int, int]:
        """``(subchannel, bank, row)`` of a line, without address objects.

        The system maps every LLC miss through this instead of
        :meth:`map_line`: it never needs the column, and skipping the
        frozen-dataclass construction (plus validation) roughly halves
        the mapping cost. Subclasses get this derived fallback; the
        bundled mappers override it with the direct arithmetic.
        """
        address = self.map_line(line_index).bank_address
        return address.subchannel, address.bank, address.row

    def total_lines(self) -> int:
        return self._total_lines

    def map_address(self, byte_address: int) -> LineAddress:
        """Map a byte address (wraps around the capacity)."""
        line = (byte_address // self._line_bytes) % self._total_lines
        return self.map_line(line)


class MOPMapper(AddressMapper):
    """Minimalist Open Page mapping with ``config.mop_lines`` lines/row."""

    def __init__(self, config: DRAMConfig):
        super().__init__(config)
        self._mop = config.mop_lines
        self._banks = config.banks_per_subchannel
        self._subchannels = config.subchannels
        self._rows = config.rows_per_bank
        self._groups_per_row = config.lines_per_row // config.mop_lines

    def map_line(self, line_index: int) -> LineAddress:
        mop = self._mop
        line_index %= self._total_lines

        offset = line_index % mop
        rest = line_index // mop
        bank = rest % self._banks
        rest //= self._banks
        subchannel = rest % self._subchannels
        rest //= self._subchannels
        row = rest % self._rows
        group = (rest // self._rows) % self._groups_per_row

        column = group * mop + offset
        return LineAddress(BankAddress(subchannel, bank, row), column)

    def map_line_raw(self, line_index: int) -> tuple[int, int, int]:
        rest = (line_index % self._total_lines) // self._mop
        bank = rest % self._banks
        rest //= self._banks
        subchannel = rest % self._subchannels
        row = (rest // self._subchannels) % self._rows
        return subchannel, bank, row


class OpenPageMapper(AddressMapper):
    """Row-contiguous mapping: an entire row's lines are consecutive."""

    def __init__(self, config: DRAMConfig):
        super().__init__(config)
        self._lines_per_row = config.lines_per_row
        self._banks = config.banks_per_subchannel
        self._subchannels = config.subchannels
        self._rows = config.rows_per_bank

    def map_line(self, line_index: int) -> LineAddress:
        line_index %= self._total_lines

        column = line_index % self._lines_per_row
        rest = line_index // self._lines_per_row
        bank = rest % self._banks
        rest //= self._banks
        subchannel = rest % self._subchannels
        row = (rest // self._subchannels) % self._rows
        return LineAddress(BankAddress(subchannel, bank, row), column)

    def map_line_raw(self, line_index: int) -> tuple[int, int, int]:
        rest = (line_index % self._total_lines) // self._lines_per_row
        bank = rest % self._banks
        rest //= self._banks
        subchannel = rest % self._subchannels
        row = (rest // self._subchannels) % self._rows
        return subchannel, bank, row


def make_mapper(config: DRAMConfig, kind: str = "mop") -> AddressMapper:
    """Factory: ``kind`` is ``"mop"`` (paper default) or ``"open"``."""
    if kind == "mop":
        return MOPMapper(config)
    if kind == "open":
        return OpenPageMapper(config)
    raise ValueError(f"unknown mapper kind: {kind!r}")
