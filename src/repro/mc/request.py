"""Memory requests flowing from cores to the memory controller."""

from __future__ import annotations

import itertools

_request_ids = itertools.count()

#: ``ret`` of a read whose data has no return time yet; later than any
#: simulated time, so an unstamped read never retires
UNSTAMPED = 1 << 62


class MemRequest:
    """One request to ``(subchannel, bank, row)``, from issue to return.

    ``arrival_ps`` is when it reaches the memory controller; the
    controller fills in ``completion_ps`` when the data burst finishes.

    A core's read also carries its ``owner`` (the issuing
    :class:`~repro.cpu.core.Core`) and ``index``, the instruction index
    that holds it in the owner's miss window. When the data's return
    time is known the read is *stamped*: ``ret`` is the time the data
    reaches the core and ``rseq`` the event sequence number its
    completion event would carry, so ``(ret, rseq)`` orders the return
    against the event heap. Writes and a standalone controller's
    traffic have no owner.
    """

    __slots__ = ("core", "subchannel", "bank", "row", "arrival_ps",
                 "is_write", "request_id", "completion_ps", "owner",
                 "index", "ret", "rseq")

    def __init__(self, core: int, subchannel: int, bank: int, row: int,
                 arrival_ps: int, is_write: bool = False, owner=None,
                 index: int = 0):
        self.core = core
        self.subchannel = subchannel
        self.bank = bank
        self.row = row
        self.arrival_ps = arrival_ps
        self.is_write = is_write
        self.request_id = next(_request_ids)
        self.completion_ps: int | None = None
        self.owner = owner
        self.index = index
        self.ret = UNSTAMPED
        self.rseq = 0

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
