"""On-disk result cache: keys, persistence, corruption tolerance."""

import json

import pytest

from repro.exec.cache import ResultCache, point_key
from repro.sim.runner import DesignPoint, run_point

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)
POINT = DesignPoint(workload="xalancbmk", design="baseline", **FAST)


@pytest.fixture(scope="module")
def result():
    return run_point(POINT)


class TestPointKey:
    def test_stable_across_equal_points(self):
        a = DesignPoint(workload="mcf", design="prac", **FAST)
        b = DesignPoint(workload="mcf", design="prac", **FAST)
        assert point_key(a) == point_key(b)

    def test_any_field_change_changes_key(self):
        base = DesignPoint(workload="mcf", design="prac", **FAST)
        variants = [
            DesignPoint(workload="add", design="prac", **FAST),
            DesignPoint(workload="mcf", design="mopac-c", **FAST),
            DesignPoint(workload="mcf", design="prac", trh=250, **FAST),
            DesignPoint(workload="mcf", design="prac", seed=1, **FAST),
        ]
        keys = {point_key(p) for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_salt_changes_key(self):
        point = DesignPoint(workload="mcf", design="prac", **FAST)
        assert point_key(point, "salt-a") != point_key(point, "salt-b")

    def test_user_salt_env(self, monkeypatch):
        point = DesignPoint(workload="mcf", design="prac", **FAST)
        before = point_key(point)
        monkeypatch.setenv("REPRO_CACHE_SALT", "experiment-7")
        assert point_key(point) != before


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(POINT) is None
        assert cache.counters.misses == 1

    def test_put_get_round_trip(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        back = cache.get(POINT)
        assert back is not None
        assert back.ipcs == result.ipcs
        assert back.mc_stats == result.mc_stats
        assert cache.counters.hits == 1
        assert len(cache) == 1

    def test_observability_fields_round_trip(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        back = cache.get(POINT)
        assert back.stats == result.stats
        assert back.stats["mc.0.row_hits"] == result.mc_stats[0].row_hits
        assert back.phases == result.phases

    def test_persists_across_instances(self, tmp_path, result):
        ResultCache(tmp_path).put(POINT, result)
        fresh = ResultCache(tmp_path)
        assert fresh.get(POINT).elapsed_ps == result.elapsed_ps

    def test_sharded_layout(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        key = point_key(POINT, cache.salt)
        assert path == tmp_path / key[:2] / f"{key}.json"
        assert path.exists()

    def test_clear(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(POINT) is None

    def test_overwrite_is_atomic_replace(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        first = cache.put(POINT, result)
        assert cache.put(POINT, result) == first
        # one entry, and no temp file left behind by either write
        assert len(cache) == 1
        assert list(tmp_path.rglob("*.tmp")) == []
        assert cache.get(POINT).ipcs == result.ipcs


class TestCounters:
    def test_miss_counts_once_per_lookup(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(3):
            assert cache.get(POINT) is None
        assert cache.counters.as_dict() == dict(hits=0, misses=3,
                                                corrupt=0, writes=0)

    def test_hits_and_writes_counted(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        cache.get(POINT)
        cache.get(POINT)
        assert cache.counters.as_dict() == dict(hits=2, misses=0,
                                                corrupt=0, writes=1)
        assert cache.counters.hit_rate == 1.0

    def test_no_lookups_reads_a_zero_hit_rate(self, tmp_path):
        counters = ResultCache(tmp_path).counters
        assert counters.lookups == 0 and counters.hit_rate == 0.0

    def test_corrupt_entry_counts_as_a_miss_too(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result).write_text(json.dumps({"not": "a result"}))
        assert cache.get(POINT) is None
        assert (cache.counters.misses, cache.counters.corrupt) == (1, 1)
        assert cache.counters.hit_rate == 0.0


class TestCorruptionTolerance:
    def test_truncated_file_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        blob = path.read_text()
        path.write_text(blob[:len(blob) // 2])
        assert cache.get(POINT) is None
        assert cache.counters.corrupt == 1

    def test_garbage_file_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        path.write_text("not json at all {]")
        assert cache.get(POINT) is None

    def test_wrong_schema_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        data = json.loads(path.read_text())
        data["schema"] = 9999
        path.write_text(json.dumps(data))
        assert cache.get(POINT) is None
        assert cache.counters.corrupt == 1

    def test_structurally_broken_document_is_a_miss(self, tmp_path,
                                                    result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        data = json.loads(path.read_text())
        del data["core_stats"]
        path.write_text(json.dumps(data))
        assert cache.get(POINT) is None

    def test_corrupt_entry_recoverable_by_put(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        path.write_text("")
        assert cache.get(POINT) is None
        cache.put(POINT, result)
        assert cache.get(POINT).ipcs == result.ipcs
