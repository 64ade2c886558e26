"""PrIDE baseline tracker (Jaleel+, ISCA'24; paper Section 9.2).

PrIDE samples each activation with a fixed Bernoulli probability (one
expected sample per mitigation window) into a small per-bank FIFO; one
entry is mitigated per mitigation opportunity (every
``refs_per_mitigation`` REFs). The FIFO is lossy — a sample arriving when
the queue is full is dropped — which is the structural weakness that makes
PrIDE tolerate a higher T_RH than MINT in Table 13.
"""

from __future__ import annotations

import collections
import random

from ..dram.timing import TimingSet, ddr5_base
from .base import EpisodeDecision, RefMitigationPolicy
from .mint import DEFAULT_WINDOW


class PrIDEPolicy(RefMitigationPolicy):
    """Bernoulli sampling into a lossy per-bank FIFO, drain-on-REF."""

    name = "pride"

    def __init__(self, banks: int = 32, window: int = DEFAULT_WINDOW,
                 rows: int = 65536, refresh_groups: int = 8192,
                 queue_size: int = 2, refs_per_mitigation: int = 1,
                 timing: TimingSet | None = None,
                 rng: random.Random | None = None):
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        super().__init__(timing or ddr5_base(), banks, rows, refresh_groups,
                         refs_per_mitigation)
        self.probability = 1.0 / window
        self.queues: list[collections.deque[int]] = [
            collections.deque() for _ in range(banks)
        ]
        self.queue_size = queue_size
        self.rng = rng or random.Random(0x1DE)
        self.dropped_samples = 0

    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        if self.rng.random() < self.probability:
            queue = self.queues[bank]
            if len(queue) < self.queue_size:
                queue.append(row)
            else:
                self.dropped_samples += 1
        return self._plain_decision

    def _mitigate_on_ref(self, bank: int, now: int) -> None:
        queue = self.queues[bank]
        if queue:
            self._record_mitigation(bank, queue.popleft(), now)
