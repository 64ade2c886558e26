"""End-to-end conservation invariants of the full-system simulator."""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.sim import system as system_module
from repro.sim.system import System


def small_config(cores=4):
    dram = DRAMConfig(subchannels=2, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    return SystemConfig(dram=dram, cores=cores)


def mixed_trace(core, n=150):
    for i in range(n):
        yield TraceItem(10 + (i % 7), (core * 50_000 + i * 17) * 64,
                        is_write=(i % 4 == 0))


@pytest.fixture(params=["baseline", "prac"])
def run(request, monkeypatch):
    born = []

    class Recording(MemRequest):
        def __init__(self, *args):
            super().__init__(*args)
            born.append(self)

    monkeypatch.setattr(system_module, "MemRequest", Recording)
    config = small_config()
    if request.param == "baseline":
        factory = lambda i: BaselinePolicy(config.dram.timing)  # noqa: E731
    else:
        from repro.dram.timing import ddr5_prac
        timing = ddr5_prac().scaled_refresh(1 / 256)
        factory = lambda i: PRACMoatPolicy(  # noqa: E731
            500, 4, 256, 32, timing=timing)
    system = System(config, factory,
                    [mixed_trace(i) for i in range(config.cores)],
                    instruction_limit=10_000)
    result = system.run()
    return system, born, result


class TestConservation:
    def test_every_request_completed_exactly_once(self, run):
        system, born, result = run
        assert len(born) == result.total_requests
        assert len({r.request_id for r in born}) == len(born)
        for request in born:
            assert request.completion_ps is not None
            assert request.completion_ps >= request.arrival_ps
        assert sum(mc.stats.serviced for mc in system.controllers) \
            == len(born)

    def test_no_requests_stranded(self, run):
        system, _, result = run
        for mc in system.controllers:
            assert mc.pending() == 0

    def test_bank_stats_consistent(self, run):
        system, _, result = run
        for mc in system.controllers:
            for index, stats in enumerate(mc.bank_stats):
                assert stats.activations >= stats.precharges
                # at run end a bank is open iff ACTs exceed PREs
                diff = stats.activations - stats.precharges
                assert diff == (1 if mc.soa.open_row[index] >= 0 else 0)

    def test_column_accesses_match_requests(self, run):
        system, _, result = run
        columns = sum(b.reads + b.writes
                      for mc in system.controllers for b in mc.bank_stats)
        assert columns == result.total_requests

    def test_hits_plus_activations_cover_requests(self, run):
        system, _, result = run
        for sc in range(result.config.dram.subchannels):
            stats = {name: result.stats[f"mc.{sc}.{name}"]
                     for name in ("row_hits", "row_misses", "row_conflicts",
                                  "requests", "activations")}
            total = stats["row_hits"] + stats["row_misses"] + \
                stats["row_conflicts"]
            assert total == stats["requests"]
            assert stats["activations"] == stats["row_misses"] + \
                stats["row_conflicts"]

    def test_all_cores_retired_budget(self, run):
        _, _, result = run
        for i in range(result.config.cores):
            assert result.stats[f"core.{i}.instructions"] == 10_000
            assert result.stats[f"core.{i}.finish_ps"] > 0
