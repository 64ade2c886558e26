"""JSON round-trip of simulation results."""

import csv
import io
import json
import pathlib

import pytest

from repro.dram.energy import energy_overhead
from repro.exec.serialize import (SCHEMA_VERSION, result_from_dict,
                                  result_row, result_to_dict)
from repro.mitigations import registry
from repro.sim.runner import (DesignPoint, run_group, run_point,
                              weighted_speedup)
from repro.tools import campaign

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)


@pytest.fixture(scope="module")
def result():
    return run_point(DesignPoint(workload="mcf", design="prac", trh=500,
                                 collect_row_activity=True, **FAST))


def round_trip(result):
    # through actual JSON text, not just the dict, so type fidelity
    # (int vs float) is part of the contract
    return result_from_dict(json.loads(json.dumps(result_to_dict(result))))


@pytest.fixture(scope="module")
def pairs(result):
    """``(result, round-tripped result)`` of a lead, a rider that rode it
    and a row-activity point."""
    rider = DesignPoint(workload="mcf", design="mopac-d", trh=500, **FAST)
    lead_result, rider_result = run_group([rider.baseline(), rider])
    assert rider_result is not None  # it rode the lead to the end
    return {name: (original, round_trip(original)) for name, original in
            (("lead", lead_result), ("rider", rider_result),
             ("row-activity", result))}


def keys(result, prefix):
    return {key: value for key, value in result.stats.items()
            if key.startswith(prefix)}


TABLE4 = ("apri", "act64", "act200")


class TestRoundTrip:
    def test_ipcs_exact(self, pairs):
        for result, roundtripped in pairs.values():
            assert roundtripped.ipcs == result.ipcs

    def test_core_stats(self, pairs):
        for result, roundtripped in pairs.values():
            assert keys(roundtripped, "core.") == keys(result, "core.")

    def test_mc_stats(self, pairs):
        for result, roundtripped in pairs.values():
            assert keys(roundtripped, "mc.") == keys(result, "mc.")

    def test_policy_stats(self, pairs):
        for result, roundtripped in pairs.values():
            assert keys(roundtripped, "mitigation.") == \
                keys(result, "mitigation.")

    def test_elapsed(self, pairs):
        for result, roundtripped in pairs.values():
            assert roundtripped.elapsed_ps == result.elapsed_ps

    def test_row_activity(self, pairs):
        result, roundtripped = pairs["row-activity"]
        activity = keys(result, "sim.row_activity.")
        assert activity
        assert keys(roundtripped, "sim.row_activity.") == activity
        assert roundtripped.stats["sim.row_activity.act64"] == \
            result.stats["sim.row_activity.act64"]

    def test_table4_fields(self, pairs):
        for name, (result, roundtripped) in pairs.items():
            for column in TABLE4:
                key = f"sim.row_activity.{column}"
                assert (key in result.stats) == (name == "row-activity")
                assert roundtripped.stats.get(key) == result.stats.get(key)

    def test_result_row(self, pairs):
        for result, roundtripped in pairs.values():
            assert result_row(roundtripped) == result_row(result)

    def test_config_round_trips(self, pairs):
        for result, roundtripped in pairs.values():
            assert roundtripped.config == result.config
            assert roundtripped.config.dram.timing == \
                result.config.dram.timing

    def test_stats_snapshot_bit_identical(self, pairs):
        for result, roundtripped in pairs.values():
            assert result.stats  # populated by System.run()
            assert roundtripped.stats == result.stats
            assert list(roundtripped.stats) == list(result.stats)

    def test_derived_metrics_match(self, pairs):
        for result, roundtripped in pairs.values():
            assert roundtripped.row_buffer_hit_rate == \
                result.row_buffer_hit_rate
            assert roundtripped.bandwidth_gbps() == result.bandwidth_gbps()
            assert roundtripped.summary() == result.summary()


class TestDocument:
    """A result is its config and its stats snapshot, and so is its
    document: no counter is stored twice."""

    def test_members_are_schema_config_stats(self, pairs):
        for result, _ in pairs.values():
            assert set(result_to_dict(result)) == {"schema", "config",
                                                   "stats"}


class TestSchemaGuard:
    def test_future_schema_rejected(self, result):
        data = result_to_dict(result)
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            result_from_dict(data)

    def test_missing_schema_rejected(self, result):
        data = result_to_dict(result)
        del data["schema"]
        with pytest.raises(ValueError, match="schema"):
            result_from_dict(data)

    def test_none_row_activity(self):
        result = run_point(DesignPoint(workload="add", design="baseline",
                                       **FAST))
        back = result_from_dict(result_to_dict(result))
        assert not keys(back, "sim.row_activity.")
        assert back.stats == result.stats


class TestResultRow:
    """``result_row`` documents are all a ``results.csv`` needs, and
    survive the serve daemon's JSON hop bit for bit."""

    @pytest.fixture(scope="class")
    def grid(self):
        points = [DesignPoint(workload=workload, design=design, trh=500,
                              **FAST)
                  for workload in ("mcf", "add")
                  for design in ("baseline", *registry.names())]
        flat = [q for point in points for q in (point, point.baseline())]
        results = {q: run_point(q) for q in dict.fromkeys(flat)}
        return points, flat, results

    def write(self, directory, grid, rows):
        points, flat, _ = grid
        directory.mkdir()
        paths = [pathlib.Path(f"{p.workload}.{p.design}.t{p.trh}.ini")
                 for p in points]
        return campaign.write_results_csv(directory / "results.csv",
                                          paths, points, rows).read_bytes()

    def test_csv_byte_identical_through_json(self, tmp_path, grid):
        _, flat, results = grid
        local = self.write(tmp_path / "local", grid,
                           [result_row(results[q]) for q in flat])
        wire = self.write(tmp_path / "wire", grid,
                          [json.loads(json.dumps(result_row(results[q])))
                           for q in flat])
        assert local == wire
        assert local.count(b"\n") == 1 + len(grid[0])

    def test_csv_matches_the_result_formulas(self, tmp_path, grid):
        points, flat, results = grid
        csv_bytes = self.write(tmp_path / "csv", grid,
                               [result_row(results[q]) for q in flat])
        rows = csv.DictReader(io.StringIO(csv_bytes.decode()))
        for point, row in zip(points, rows, strict=True):
            result, base = results[point], results[point.baseline()]
            assert row["weighted_speedup"] == \
                f"{weighted_speedup(result, base):.6f}"
            assert row["energy_overhead"] == \
                f"{energy_overhead(result, base):.6f}"

    def test_row_carries_only_csv_inputs(self, result):
        row = result_row(result)
        assert set(row) == {"ipcs", "rbhr", "alerts", "requests",
                            "elapsed_ps", "instructions", "energy_mj"}
        assert row["ipcs"] == result.ipcs
        assert len(json.dumps(row)) < 1_000
