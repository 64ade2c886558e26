"""DRAM substrate: timing sets, banks, address mapping, commands."""

from .address import AddressMapper, MOPMapper, OpenPageMapper, make_mapper
from .bank import BankStats, TimingSoA
from .commands import BankAddress, Command, LineAddress
from .energy import EnergyBreakdown, energy_of, energy_overhead
from .timing import MoPACTimings, TimingSet, ddr5_base, ddr5_prac

__all__ = [
    "AddressMapper", "BankAddress", "BankStats", "Command",
    "EnergyBreakdown", "LineAddress", "MOPMapper", "MoPACTimings",
    "OpenPageMapper", "energy_of", "energy_overhead",
    "TimingSet", "TimingSoA", "ddr5_base", "ddr5_prac", "make_mapper",
]
