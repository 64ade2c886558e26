"""Memory request value type."""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy
from repro.sim import system as system_module
from repro.sim.system import System


def make_request(**kw):
    defaults = dict(core=0, subchannel=1, bank=2, row=3, arrival_ps=100)
    defaults.update(kw)
    return MemRequest(**defaults)


class TestMemRequest:
    def test_fields(self):
        request = make_request()
        assert request.subchannel == 1
        assert request.bank == 2
        assert request.row == 3
        assert request.completion_ps is None

    def test_latency_after_completion(self):
        request = make_request()
        request.completion_ps = 150
        assert request.latency_ps == 50

    def test_latency_before_completion_rejected(self):
        with pytest.raises(ValueError):
            make_request().latency_ps

    def test_ids_unique(self):
        a, b = make_request(), make_request()
        assert a.request_id != b.request_id

    def test_write_flag(self):
        assert make_request(is_write=True).is_write

    def test_no_stray_attributes(self):
        with pytest.raises(AttributeError):
            make_request().address = 0


class TestSystemBornRequests:
    def test_bank_and_row_match_the_mapper(self, monkeypatch):
        born = []

        class Recording(MemRequest):
            def __init__(self, *args):
                super().__init__(*args)
                born.append(self)

        monkeypatch.setattr(system_module, "MemRequest", Recording)
        dram = DRAMConfig(subchannels=2, banks_per_subchannel=4,
                          rows_per_bank=256,
                          timing=ddr5_base().scaled_refresh(1 / 256))
        config = SystemConfig(dram=dram, cores=2)
        items = [[TraceItem(5, (i * 7919 + core * 64) * 64, i % 3 == 0)
                  for i in range(120)] for core in range(config.cores)]
        system = System(config, lambda i: BaselinePolicy(dram.timing),
                        [iter(trace) for trace in items],
                        instruction_limit=1_000)
        result = system.run()
        assert len(born) == result.total_requests > 0
        total_lines = system.mapper.total_lines()
        for core, trace in enumerate(items):
            requests = [r for r in born if r.core == core]
            assert requests
            for request, item in zip(requests, trace):
                line = (item.address // dram.line_bytes) % total_lines
                assert (request.subchannel, request.bank, request.row) \
                    == system.mapper.map_line_raw(line)
                assert request.is_write == item.is_write
                assert request.completion_ps is not None
