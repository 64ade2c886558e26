"""Memory requests flowing from cores to the memory controller."""

from __future__ import annotations

import itertools

_request_ids = itertools.count()


def next_request_id() -> int:
    """Allocate a request id outside :class:`MemRequest`.

    The system uses this to track accesses that never reach DRAM (LLC
    hits) in the same core-side bookkeeping as real misses.
    """
    return next(_request_ids)


class MemRequest:
    """One LLC-miss request to ``(subchannel, bank, row)``.

    ``arrival_ps`` is when it reaches the memory controller; the
    controller fills in ``completion_ps`` when the data burst finishes.
    """

    __slots__ = ("core", "subchannel", "bank", "row", "arrival_ps",
                 "is_write", "request_id", "completion_ps")

    def __init__(self, core: int, subchannel: int, bank: int, row: int,
                 arrival_ps: int, is_write: bool = False):
        self.core = core
        self.subchannel = subchannel
        self.bank = bank
        self.row = row
        self.arrival_ps = arrival_ps
        self.is_write = is_write
        self.request_id = next(_request_ids)
        self.completion_ps: int | None = None

    @property
    def latency_ps(self) -> int:
        if self.completion_ps is None:
            raise ValueError("request not completed yet")
        return self.completion_ps - self.arrival_ps

    def __repr__(self) -> str:
        return (f"MemRequest(core={self.core}, sc={self.subchannel}, "
                f"bank={self.bank}, row={self.row}, "
                f"arrival_ps={self.arrival_ps}, is_write={self.is_write}, "
                f"id={self.request_id})")
