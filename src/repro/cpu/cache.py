"""Shared last-level cache (Table 3: 8 MB, 16-way, 64 B lines, LRU).

The calibrated Table 4 workloads generate LLC-*miss* streams directly
(their MPKI column already counts LLC misses), so the default system wires
cores straight to the memory controller. The cache is a full substrate
nonetheless: raw access traces can be filtered through it
(``System(..., use_llc=True)``), the cache-behaviour tests exercise it, and
the ``examples/llc_filtering.py`` example shows both modes side by side.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """LRU set-associative cache of line addresses."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int = 64):
        if capacity_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        lines = capacity_bytes // line_bytes
        if lines % ways:
            raise ValueError("capacity must divide evenly into ways")
        self.sets = lines // ways
        if self.sets == 0:
            raise ValueError("cache too small for the requested ways")
        self.ways = ways
        self.line_bytes = line_bytes
        # per-set OrderedDict: tag -> dirty flag; LRU at the front
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.sets)
        ]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.sets, line // self.sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Look up (and fill on miss). Returns True on hit."""
        index, tag = self._locate(address)
        entries = self._sets[index]
        self.stats.accesses += 1
        if tag in entries:
            self.stats.hits += 1
            entries.move_to_end(tag)
            if is_write:
                entries[tag] = True
            return True
        self.stats.misses += 1
        if len(entries) >= self.ways:
            _, dirty = entries.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        entries[tag] = is_write
        return False

    def contains(self, address: int) -> bool:
        index, tag = self._locate(address)
        return tag in self._sets[index]

    def flush(self) -> int:
        """Drop all lines; returns how many were dirty."""
        dirty = sum(flag for entries in self._sets
                    for flag in entries.values())
        for entries in self._sets:
            entries.clear()
        return dirty
