"""MCStats accounting identities and derived accessors."""

import dataclasses

import pytest

from repro.mc.controller import MCStats
from repro.sim.runner import DesignPoint, run_point


class TestDerivedAccessors:
    def test_row_hit_rate(self):
        stats = MCStats(row_hits=3, row_misses=1, row_conflicts=0)
        assert stats.classified_accesses == 4
        assert stats.row_buffer_hit_rate == 0.75
        assert stats.row_hit_rate == 0.75

    def test_mean_read_latency_ns(self):
        stats = MCStats(read_latency_ps=90_000, read_serviced=3)
        assert stats.mean_read_latency_ns == 30.0

    def test_empty_stats_read_zero(self):
        stats = MCStats()
        assert stats.row_buffer_hit_rate == 0.0
        assert stats.mean_read_latency_ns == 0.0
        assert stats.mean_latency_ns == 0.0

    def test_derived_dict_matches_properties(self):
        stats = MCStats(requests=2, reads=2, serviced=2, row_hits=1,
                        row_misses=1, total_latency_ps=100_000,
                        read_latency_ps=100_000, read_serviced=2)
        assert stats.derived() == {
            "row_buffer_hit_rate": stats.row_buffer_hit_rate,
            "mean_latency_ns": stats.mean_latency_ns,
            "mean_read_latency_ns": stats.mean_read_latency_ns,
        }


@pytest.fixture(scope="module", params=["mix1", "mcf"])
def stats(request):
    result = run_point(DesignPoint(workload=request.param, design="prac",
                                   trh=500, instructions=4_000,
                                   rows_per_bank=512,
                                   refresh_scale=1 / 256))
    # each sub-channel's MCStats, read back from the snapshot
    return [MCStats(**{field.name: result.stats[f"mc.{sc}.{field.name}"]
                       for field in dataclasses.fields(MCStats)})
            for sc in range(result.config.dram.subchannels)]


class TestConservation:
    def test_requests_split_into_reads_and_writes(self, stats):
        for mc in stats:
            assert mc.requests == mc.reads + mc.writes
            assert mc.reads > 0 and mc.writes > 0

    def test_every_serviced_request_is_classified_once(self, stats):
        for mc in stats:
            assert mc.serviced == mc.classified_accesses
            # writebacks left in the queue at end-of-run stay unserviced
            assert mc.serviced <= mc.requests

    def test_activations_match_non_hit_accesses(self, stats):
        for mc in stats:
            assert mc.activations == mc.row_misses + mc.row_conflicts

    def test_read_latency_covers_exactly_the_serviced_reads(self, stats):
        for mc in stats:
            assert mc.read_serviced <= mc.reads
            assert mc.read_serviced <= mc.serviced
            if mc.read_serviced:
                assert mc.read_latency_ps > 0
                assert mc.mean_read_latency_ns > 0.0

    def test_rates_are_probabilities(self, stats):
        for mc in stats:
            assert 0.0 <= mc.row_buffer_hit_rate <= 1.0
