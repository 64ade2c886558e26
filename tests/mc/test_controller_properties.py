"""Property-based stress of the memory controller."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy


def drive(requests, use_prac=False):
    """Push a request stream through one controller; returns results."""
    timing = (ddr5_prac() if use_prac else ddr5_base()) \
        .scaled_refresh(1 / 256)
    config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                        rows_per_bank=64, timing=timing)
    policy = (PRACMoatPolicy(500, 4, 64, 8, timing=timing) if use_prac
              else BaselinePolicy(timing))
    events = EventLoop()
    mc = MemoryController(0, config, policy, events)
    mc.start()
    submitted = []
    for arrival, bank, row, is_write in requests:
        request = MemRequest(0, 0, bank, row, arrival, is_write)
        submitted.append(request)
        mc.enqueue(request, arrival)
    horizon = (max((a for a, *_ in requests), default=0)
               + 100 * timing.tRC + 10 * timing.tRFC)
    events.run(until=horizon,
               stop=lambda t: mc.stats.serviced == len(submitted))
    return mc, submitted


request_streams = st.lists(
    st.tuples(st.integers(0, 2_000_000),  # arrival ps
              st.integers(0, 3),  # bank
              st.integers(0, 63),  # row
              st.booleans()),  # write
    min_size=1, max_size=60)


@settings(max_examples=30, deadline=None)
@given(request_streams, st.booleans())
def test_every_request_completes(requests, use_prac):
    mc, submitted = drive(sorted(requests), use_prac)
    assert mc.stats.serviced == len(submitted)
    assert all(r.completion_ps is not None for r in submitted)


@settings(max_examples=30, deadline=None)
@given(request_streams)
def test_completion_never_precedes_arrival(requests):
    _, submitted = drive(sorted(requests))
    for request in submitted:
        assert request.completion_ps is not None
        assert request.completion_ps > request.arrival_ps


@settings(max_examples=30, deadline=None)
@given(request_streams)
def test_accounting_identity(requests):
    mc, submitted = drive(sorted(requests))
    stats = mc.stats
    assert stats.requests == len(submitted)
    assert stats.row_hits + stats.row_misses + stats.row_conflicts \
        == stats.requests
    assert stats.reads + stats.writes == stats.requests


@settings(max_examples=20, deadline=None)
@given(request_streams)
def test_prac_never_faster_than_baseline_in_total(requests):
    """PRAC only adds latency; the last completion cannot come earlier.

    Up to one tBURST of slack: the PRAC timing shifts can legally flip
    the commit order of two banks' service passes, chaining the tail
    request's column access behind a different burst in each run.
    """
    requests = sorted(requests)
    _, base_requests = drive(requests, use_prac=False)
    _, prac_requests = drive(requests, use_prac=True)
    base_end = max(r.completion_ps for r in base_requests)
    prac_end = max(r.completion_ps for r in prac_requests)
    slack = ddr5_base().tBURST
    assert prac_end >= base_end - slack
