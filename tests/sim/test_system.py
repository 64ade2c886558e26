"""Full-system simulator: end-to-end runs on tiny configurations."""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mitigations.prac import BaselinePolicy
from repro.sim.system import System


def small_config(cores=2):
    dram = DRAMConfig(subchannels=2, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    return SystemConfig(dram=dram, cores=cores)


def fixed_trace(n, stride=1, gap=20, start=0):
    return iter([TraceItem(gap, (start + i * stride) * 64)
                 for i in range(n)])


def run_system(config=None, traces=None, instructions=5_000, **kw):
    config = config or small_config()
    if traces is None:
        traces = [fixed_trace(100, start=i * 10_000)
                  for i in range(config.cores)]
    system = System(config, lambda i: BaselinePolicy(config.dram.timing),
                    traces, instructions, **kw)
    return system.run()


class TestCompletion:
    def test_run_finishes(self):
        result = run_system()
        assert result.elapsed_ps > 0

    def test_all_requests_serviced(self):
        result = run_system()
        # 100 reads+writes per core reach DRAM (no LLC filtering)
        assert result.total_requests == 200

    def test_core_stats_cover_budget(self):
        result = run_system(instructions=5_000)
        for i in range(result.config.cores):
            assert result.stats[f"core.{i}.instructions"] == 5_000

    def test_ipcs_positive_and_bounded(self):
        result = run_system()
        for ipc in result.ipcs:
            assert 0 < ipc <= 4.0


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = run_system()
        b = run_system()
        assert a.elapsed_ps == b.elapsed_ps
        assert [a.stats[f"core.{i}.finish_ps"] for i in range(2)] == \
            [b.stats[f"core.{i}.finish_ps"] for i in range(2)]


class TestSequentialLocality:
    def test_sequential_trace_gets_row_hits(self):
        config = small_config(cores=1)
        traces = [fixed_trace(400, stride=1, gap=5)]
        result = run_system(config, traces)
        assert result.row_buffer_hit_rate > 0.5

    def test_strided_trace_gets_no_hits(self):
        config = small_config(cores=1)
        # stride of mop_lines * banks * subchannels lines -> same bank,
        # different row every time
        stride = 4 * 4 * 2 * 64
        traces = [iter([TraceItem(5, i * stride) for i in range(300)])]
        result = run_system(config, traces)
        assert result.row_buffer_hit_rate < 0.05


class TestLLCMode:
    def test_llc_filters_rereferences(self):
        config = small_config(cores=1)
        # the same 16 lines over and over: everything after the first
        # touch hits in the LLC
        items = [TraceItem(10, (i % 16) * 64) for i in range(500)]
        result = run_system(config, [iter(items)], instructions=10_000,
                            use_llc=True)
        assert result.total_requests == 16

    def test_no_llc_sends_everything(self):
        config = small_config(cores=1)
        items = [TraceItem(10, (i % 16) * 64) for i in range(500)]
        result = run_system(config, [iter(items)], instructions=10_000,
                            use_llc=False)
        assert result.total_requests == 500


class TestLLCHitCompletion:
    """Regression: LLC hits must schedule a core completion.

    Without it a core that fills its miss window on cache-resident data
    waits on the hit's request id forever (the deadlock), and hits are
    modelled as free instead of costing the LLC lookup latency.
    """

    def hot_items(self, n=400):
        # 16 lines touched repeatedly: 16 cold misses, then pure hits
        return [TraceItem(10, (i % 16) * 64) for i in range(n)]

    def test_tiny_window_run_completes(self):
        config = small_config(cores=1)
        result = run_system(config, [iter(self.hot_items())],
                            instructions=10_000, use_llc=True,
                            windows=[1])
        # window=1 forces the core to wait on every access in turn; the
        # run finishing at all proves hit completions are delivered
        assert result.stats["core.0.instructions"] == 10_000
        assert result.total_requests == 16

    def test_hits_cost_llc_latency(self):
        config = small_config(cores=1)
        n = 400
        result = run_system(config, [iter(self.hot_items(n))],
                            instructions=10_000, use_llc=True,
                            windows=[1])
        # serialized on a window of 1, every hit pays ~llc_hit_ps
        assert result.elapsed_ps >= (n - 16) * config.llc_hit_ps

    def test_write_hits_do_not_block(self):
        config = small_config(cores=1)
        reads = [TraceItem(10, (i % 16) * 64) for i in range(400)]
        writes = [TraceItem(10, (i % 16) * 64, is_write=True)
                  for i in range(400)]
        t_reads = run_system(config, [iter(reads)], instructions=10_000,
                             use_llc=True, windows=[1]).elapsed_ps
        t_writes = run_system(config, [iter(writes)], instructions=10_000,
                              use_llc=True, windows=[1]).elapsed_ps
        assert t_writes < t_reads


class TestRowActivity:
    def test_monitor_collects_acts(self):
        config = small_config(cores=1)
        traces = [fixed_trace(300, stride=64)]  # conflict-heavy
        result = run_system(config, traces, collect_row_activity=True)
        assert "sim.row_activity.windows" in result.stats
        assert result.stats["sim.row_activity.total_acts"] > 0

    def test_monitor_absent_by_default(self):
        result = run_system()
        assert not any(key.startswith("sim.row_activity.")
                       for key in result.stats)


class TestValidation:
    def test_trace_count_must_match_cores(self):
        config = small_config(cores=2)
        with pytest.raises(ValueError, match="traces"):
            System(config, lambda i: BaselinePolicy(config.dram.timing),
                   [fixed_trace(10)], 1000)

    def test_windows_must_match_traces(self):
        config = small_config(cores=2)
        with pytest.raises(ValueError, match="windows"):
            System(config, lambda i: BaselinePolicy(config.dram.timing),
                   [fixed_trace(10), fixed_trace(10)], 1000, windows=[256])


class TestWritebacksDoNotBlock:
    def test_write_heavy_trace_finishes_fast(self):
        config = small_config(cores=1)
        reads = [TraceItem(50, i * 64) for i in range(200)]
        writes = [TraceItem(50, i * 64, is_write=True) for i in range(200)]
        t_reads = run_system(config, [iter(reads)]).elapsed_ps
        t_writes = run_system(config, [iter(writes)]).elapsed_ps
        # writebacks never block retirement, so the write run is
        # dispatch-limited and faster
        assert t_writes < t_reads
