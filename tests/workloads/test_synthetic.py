"""Synthetic trace generation: calibration and structure."""

import pytest

from repro.config import DRAMConfig
from repro.cpu.trace import trace_mpki
from repro.dram.address import MOPMapper
from repro.workloads.catalog import SPEC_WORKLOADS
from repro.workloads.synthetic import TraceGenerator, generate_trace


@pytest.fixture
def config():
    return DRAMConfig(subchannels=2, banks_per_subchannel=8,
                      rows_per_bank=1024)


class TestMPKICalibration:
    @pytest.mark.parametrize("name", ["add", "mcf", "xalancbmk", "xz"])
    def test_measured_mpki_matches_target(self, config, name):
        spec = SPEC_WORKLOADS[name]
        items = generate_trace(spec, config, accesses=20_000)
        assert trace_mpki(items) == pytest.approx(spec.mpki, rel=0.06)

    def test_stream_gaps_deterministic(self, config):
        spec = SPEC_WORKLOADS["add"]
        items = generate_trace(spec, config, accesses=100)
        assert len({item.gap for item in items}) == 1


class TestStructure:
    def test_stream_produces_sequential_lines(self, config):
        spec = SPEC_WORKLOADS["copy"]
        items = generate_trace(spec, config, accesses=200)
        lines = [item.address // config.line_bytes for item in items]
        sequential = sum(1 for a, b in zip(lines, lines[1:])
                         if b == a + 1)
        assert sequential / len(lines) > 0.9

    def test_random_produces_scattered_lines(self, config):
        spec = SPEC_WORKLOADS["cactuBSSN"]
        items = generate_trace(spec, config, accesses=500)
        lines = [item.address // config.line_bytes for item in items]
        sequential = sum(1 for a, b in zip(lines, lines[1:])
                         if b == a + 1)
        assert sequential / len(lines) < 0.1

    def test_hot_rows_receive_hot_fraction(self, config):
        spec = SPEC_WORKLOADS["xz"]  # hot_fraction 0.30
        gen = TraceGenerator(spec, config, core_id=0)
        hot_lines = {line // config.mop_lines for line in gen._hot_lines}
        hits = 0
        n = 20_000
        for _ in range(n):
            item = gen.next_item()
            line = item.address // config.line_bytes
            if line // config.mop_lines in hot_lines:
                hits += 1
        assert hits / n == pytest.approx(spec.hot_fraction, abs=0.03)

    def test_hot_rows_are_distinct_dram_rows(self, config):
        spec = SPEC_WORKLOADS["parest"]
        gen = TraceGenerator(spec, config, core_id=0)
        mapper = MOPMapper(config)
        rows = {(loc.subchannel, loc.bank, loc.row)
                for loc in (mapper.map_line(line)
                            for line in gen._hot_lines)}
        assert len(rows) == spec.hot_rows

    def test_write_fraction(self, config):
        spec = SPEC_WORKLOADS["mcf"]
        items = generate_trace(spec, config, accesses=10_000)
        writes = sum(item.is_write for item in items)
        assert writes / len(items) == pytest.approx(
            spec.write_fraction, abs=0.02)


class TestDeterminism:
    def test_same_seed_same_trace(self, config):
        spec = SPEC_WORKLOADS["mcf"]
        a = generate_trace(spec, config, 500, core_id=2, seed=9)
        b = generate_trace(spec, config, 500, core_id=2, seed=9)
        assert a == b

    def test_core_id_changes_trace(self, config):
        spec = SPEC_WORKLOADS["mcf"]
        a = generate_trace(spec, config, 500, core_id=0, seed=9)
        b = generate_trace(spec, config, 500, core_id=1, seed=9)
        assert a != b

    def test_cores_use_disjoint_footprints(self, config):
        spec = SPEC_WORKLOADS["add"]
        a = TraceGenerator(spec, config, core_id=0)
        b = TraceGenerator(spec, config, core_id=1)
        assert a.base_line != b.base_line


class TestIteration:
    def test_generator_is_iterable(self, config):
        gen = TraceGenerator(SPEC_WORKLOADS["mcf"], config)
        items = [item for _, item in zip(range(10), gen)]
        assert len(items) == 10

    def test_footprint_clamped_to_capacity(self):
        tiny = DRAMConfig(subchannels=1, banks_per_subchannel=1,
                          rows_per_bank=8)
        gen = TraceGenerator(SPEC_WORKLOADS["mcf"], tiny)
        assert gen.footprint <= 8 * tiny.lines_per_row


class TestBlockDraws:
    """The stream does not depend on the block sizes it is drawn in:
    ``next_item`` (a block of one), uneven ``next_block`` sizes and the
    two interleaved all give the same accesses, for every catalog
    workload. The core stages synthetic traces in blocks, so this is
    what keeps a run's numbers independent of ``TRACE_BLOCK``.
    """

    @pytest.mark.parametrize("name", sorted(SPEC_WORKLOADS))
    def test_block_equals_itemwise_stream(self, config, name):
        spec = SPEC_WORKLOADS[name]
        itemwise = TraceGenerator(spec, config, core_id=1, seed=0xB10C)
        blocked = TraceGenerator(spec, config, core_id=1, seed=0xB10C)
        expected = [itemwise.next_item() for _ in range(700)]
        got = []
        # uneven block sizes cross every internal-state boundary
        for n in (1, 2, 255, 256, 186):
            got.extend(blocked.next_block(n))
        assert [(g, a, w) for g, a, w in got] == \
            [(i.gap, i.address, i.is_write) for i in expected]

    def test_block_then_items_continue_the_same_stream(self, config):
        spec = SPEC_WORKLOADS["mcf"]
        reference = TraceGenerator(spec, config, seed=7)
        mixed = TraceGenerator(spec, config, seed=7)
        expected = [reference.next_item() for _ in range(300)]
        got = list(mixed.next_block(100))
        got += [(i.gap, i.address, i.is_write)
                for i in (mixed.next_item() for _ in range(100))]
        got += list(mixed.next_block(100))
        assert got == [(i.gap, i.address, i.is_write) for i in expected]
