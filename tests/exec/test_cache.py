"""On-disk result cache: keys, persistence, corruption tolerance."""

import hashlib
import json
import pathlib

import pytest

from repro.exec.cache import UNREADABLE, ResultCache, point_key
from repro.exec.engine import SweepEngine
from repro.exec.serialize import result_from_dict, result_row, result_to_dict
from repro.sim.runner import DesignPoint, run_point
from repro.tools import campaign

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)
POINT = DesignPoint(workload="xalancbmk", design="baseline", **FAST)
V1 = pathlib.Path(__file__).parent / "data" / "result_v1.json"


def split_entry(path):
    """An entry's parsed header and the bytes after its first line."""
    head, body = path.read_bytes().split(b"\n", 1)
    return json.loads(head[:-1] + b"}"), body


def write_entry(path, header, body):
    path.write_bytes(json.dumps(header)[:-1].encode() + b",\n" + body)


def digest(header, body):
    """The ``sha256`` an entry with this header row and body names."""
    signed = json.dumps(header["row"]).encode() + b",\n" + body
    return hashlib.sha256(signed).hexdigest()


def truncate(path, result):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def flip_body_byte(path, result):
    head, body = path.read_bytes().split(b"\n", 1)
    at = body.index(b'"sim.elapsed_ps": ') + len(b'"sim.elapsed_ps": ')
    digit = b"2" if body[at:at + 1] == b"1" else b"1"
    path.write_bytes(head + b"\n" + body[:at] + digit + body[at + 1:])
    json.loads(path.read_bytes())  # still one parseable document


def change_row_digit(path, result):
    head, body = path.read_bytes().split(b"\n", 1)
    at = head.index(b'"requests": ') + len(b'"requests": ')
    digit = b"3" if head[at:at + 1] != b"3" else b"4"
    path.write_bytes(head[:at] + digit + head[at + 1:] + b"\n" + body)
    header, _ = split_entry(path)
    assert header["row"]["requests"] != result.total_requests


def drop_row(path, result):
    header, body = split_entry(path)
    del header["row"]
    write_entry(path, header, body)


def v3_document(path, result):
    document = result_to_dict(result)
    document["schema"] = 3
    path.write_text(json.dumps(document))


def v1_document(path, result):
    path.write_bytes(V1.read_bytes())


#: damage name -> f(entry path, the result it holds); every one must
#: read as a counted miss and a 410 from the daemon's ``/result``
DAMAGE = {
    "truncated": truncate,
    "flipped-body-byte": flip_body_byte,
    "changed-row-digit": change_row_digit,
    "header-without-row": drop_row,
    "v3-document": v3_document,
    "result_v1.json": v1_document,
}


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

    #: the key this point has had since SCHEMA_VERSION became 7 under
    #: CACHE_SALT mopac-sim-2 (every policy built through the registry):
    #: no environment or engine setting moves it
    PINNED = ("14d4e2d053121f0c70b97d81fd98c890e6fd76ff89bb96b75895"
              "7d63ba28ed7e")

    def test_key_is_pinned(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SALT", raising=False)
        point = DesignPoint("mcf", "mopac-d", trh=500,
                            instructions=60_000)
        assert point_key(point) == self.PINNED

    @pytest.mark.parametrize("value", ["fast", "reference", "turbo"])
    def test_leftover_engine_knob_is_ignored(self, monkeypatch, value):
        # a retired knob still set in an old environment is neither
        # rejected nor folded into the key
        monkeypatch.delenv("REPRO_CACHE_SALT", raising=False)
        monkeypatch.setenv("REPRO_ENGINE", value)
        point = DesignPoint("mcf", "mopac-d", trh=500,
                            instructions=60_000)
        assert point_key(point) == self.PINNED
        assert run_point(DesignPoint(workload="mcf", design="prac",
                                     **FAST)).total_requests > 0


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
        assert back.stats == result.stats
        assert cache.counters.hits == 1
        assert len(cache) == 1

    def test_observability_fields_round_trip(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(POINT, result)
        back = cache.get(POINT)
        assert back.stats == result.stats
        assert back.stats["mc.0.row_hits"] == result.stats["mc.0.row_hits"]

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
        header, body = split_entry(path)
        header["schema"] = 9999
        write_entry(path, header, body)
        assert cache.get(POINT) is None
        assert cache.get_row(POINT) is None
        assert cache.counters.corrupt == 2

    def test_structurally_broken_document_is_a_miss(self, tmp_path,
                                                    result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        header, body = split_entry(path)
        document = json.loads(b"{" + body)
        del document["stats"]
        body = json.dumps(document)[1:].encode()
        header["sha256"] = digest(header, body)
        write_entry(path, header, body)
        # the header checks pass: only decoding the body finds the hole
        assert cache.get_row(POINT) == result_row(result)
        assert cache.get(POINT) is None

    def test_corrupt_entry_recoverable_by_put(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(POINT, result)
        path.write_text("")
        assert cache.get(POINT) is None
        cache.put(POINT, result)
        assert cache.get(POINT).ipcs == result.ipcs


class TestEntryLayout:
    def test_one_document_opened_by_a_header_line(self, tmp_path, result):
        path = ResultCache(tmp_path).put(POINT, result)
        header, body = split_entry(path)
        assert list(header) == ["schema", "sha256", "row"]
        assert header["schema"] == 7
        # the digest covers every byte after "row": , the row included
        signed = path.read_bytes().split(b'"row": ', 1)[1]
        assert signed == json.dumps(result_row(result)).encode() \
            + b",\n" + body
        assert header["sha256"] == hashlib.sha256(signed).hexdigest()
        assert header["sha256"] == digest(header, body)
        assert header["row"] == result_row(result)
        assert b"\n" not in body
        # json.loads of the whole file still reads one result document
        document = json.loads(path.read_bytes())
        expected = result_to_dict(result)
        assert {k: v for k, v in document.items()
                if k not in ("sha256", "row")} == expected
        assert list(document)[3:] == list(expected)[1:]
        assert result_from_dict(document).ipcs == result.ipcs

    def test_cold_resolutions_write_identical_entries(self, tmp_path):
        """An entry holds no wall time or other host state: simulating
        one point twice, each into an empty cache, writes the same bytes."""
        entries = []
        for side in ("first", "second"):
            cache = ResultCache(tmp_path / side)
            SweepEngine(workers=1, cache=cache, use_memo=False).run([POINT])
            assert cache.counters.writes == 1
            entries.append(cache.path_for(POINT).read_bytes())
        assert entries[0] == entries[1]

    def test_row_read_counts_like_get(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get_row(POINT) is None
        cache.put(POINT, result)
        assert cache.get_row(POINT) == result_row(result)
        assert cache.load_row(cache.key(POINT)) == result_row(result)
        assert cache.counters.as_dict() == dict(hits=1, misses=1,
                                                corrupt=0, writes=1)


class TestCorruptionMatrix:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_counted_miss_then_overwritten(self, tmp_path, result, damage):
        cache = ResultCache(tmp_path)
        key = cache.key(POINT)
        DAMAGE[damage](cache.put(POINT, result), result)
        for read in (cache.load, cache.load_row):
            with pytest.raises(UNREADABLE):
                read(key)
        assert cache.get(POINT) is None
        assert cache.get_row(POINT) is None
        assert cache.counters.as_dict() == dict(hits=0, misses=2,
                                                corrupt=2, writes=1)
        cache.put(POINT, result)
        assert cache.get_row(POINT) == result_row(result)
        assert cache.get(POINT).ipcs == result.ipcs
        assert (cache.counters.hits, cache.counters.corrupt) == (2, 2)


@pytest.fixture(scope="module")
def campaign_cache(tmp_path_factory):
    """The cache of a small campaign run from scratch."""
    root = tmp_path_factory.mktemp("campaign")
    campaign.plan(root / "plan", ["add", "mcf"], ["prac", "mopac-d"],
                  [500, 250], 2_000)
    _, _, flat = campaign.planned_points(root / "plan")
    cache = ResultCache(root / "cache")
    SweepEngine(workers=1, cache=cache, use_memo=False).run(flat)
    return cache, list(dict.fromkeys(flat))


def test_row_of_every_entry_is_the_row_of_its_result(campaign_cache):
    cache, unique = campaign_cache
    keys = sorted(path.stem for path in cache.directory.glob("*/*.json"))
    assert keys == sorted(cache.key(point) for point in unique)
    for key in keys:
        assert cache.load_row(key) == result_row(cache.load(key))
