"""Pinned cache keys and journal lines of design points.

A design point reaches bytes in two places: its result-cache key
(``point_key``, a sha256 over its fields) and the daemon's journal
submit record (``Job.submit_record``). Both must stay byte-stable
across refactors of how the field dict is built; a moved key orphans
every cached result and a moved journal line changes what a restarted
daemon replays. The journal pins were taken before the field dict was
built shallowly; the key pins were retaken when ``SCHEMA_VERSION``
became 6 (the key hashes it). Neither may move without a
``CACHE_SALT`` or ``SCHEMA_VERSION`` bump. The ``mopac-c+knobs`` and
``mopac-d-nup+knobs`` points were re-pinned with ``p`` = 1/8 when a
point began building its policy with all its knobs at once: Row-Press
derating with ``p`` = 1/32 or 1/16 at T_RH 500 leaves no budget, so
those points no longer build.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.exec.cache import point_key
from repro.serve.client import _point_fields
from repro.serve.jobs import Job, job_from_record
from repro.sim.runner import DESIGNS, DesignPoint

#: design -> its non-default DesignPoint knob fields
KNOBBED = {
    "mopac-c": dict(p=1 / 8, rowpress=True),
    "mopac-d": dict(p=0.25, srq_size=32, drain_on_ref=3, chips=4,
                    sampler="para", abo_level=2, rowpress=True),
    "mopac-d-nup": dict(p=1 / 8, srq_size=8, drain_on_ref=1, chips=2,
                        sampler="para", abo_level=4, rowpress=True),
}

#: every non-knob field away from its default
FANCY = DesignPoint(
    workload="hammer", design="mopac-d", trh=250, instructions=12_345,
    seed=99, page_policy="ton100", rows_per_bank=1024,
    refresh_scale=1 / 128, collect_row_activity=True,
    refresh_mode="same-bank", chips=4)


def default(design):
    return DesignPoint(workload="mcf", design=design, trh=500,
                       instructions=60_000)


def cases():
    out = {design: default(design) for design in DESIGNS}
    for design, knobs in KNOBBED.items():
        out[f"{design}+knobs"] = DesignPoint(
            workload="mcf", design=design, trh=500, instructions=60_000,
            **knobs)
    out["fancy"] = FANCY
    out["fancy.baseline"] = FANCY.baseline()
    out["mopac-d+knobs.baseline"] = out["mopac-d+knobs"].baseline()
    return out


CASES = cases()

#: name -> (point_key, sha256 of the one-point job's journal line)
PINS = {
    "prac": (
        "57380187be47bed3ae56255ba56ec91758f1b815dad4ee9b6b2c0f0f1d8dc7e1",
        "6a85b303a9ab568aaa64b167092b057607dc34677595a7bb35171607038be915"),
    "moat": (
        "bffcba173d2a9bde9b1a9c56304193e16104d04ae92e240ebbe6dbd8f5ef8a3c",
        "67833f0d28174b0e1da6afd25eaae042c8b061d150d88e3fff44c2a8ea290922"),
    "qprac": (
        "0ef397fa9e82ba5837ca4a86825adde775073c889130551dfffd4922aa297c77",
        "dc2b5c11a2547da9f318869d1609c2bf6ea72323e12cc9a2b6473d048512e29f"),
    "qprac-proactive": (
        "abc22d652718d1f79a1eaa3f10d9b1389c9cda38c7fe437927631520833ce48e",
        "9b24dde677d18335ddfe5e536457a8b2bd96421177a1dc6a3bdf23892af01a50"),
    "cnc-prac": (
        "e4f2b0940869a327137ae862d5811fb66ae459ae2e71d44d4eb8b690e51a7065",
        "a16d6e47af3fe62f5f0cad9452af163b05f37090b3999fe5571e6c9f5c01eb95"),
    "practical": (
        "407cfef4da9bd8bf68ebf80bfcfd2e29952d59088b135a2c2cc5807af68fcd0d",
        "f0a9b07ec1b53f52d0bcf7774a00671bee9fde330f22493814e7b7bc9d2ab1d3"),
    "mopac-c": (
        "54ebce13ea92ff84d8c7508e473ed932b3d843f0595ff3d3f673fff43e53357a",
        "2550a441cab8f81633f478525cfd36e9b19b5c5d65f5a69658e7bbbabe8d88af"),
    "mopac-d": (
        "480b4109e96c050c814ab402156466e0b341d8ea03090d16ab3a6e0e338ed76a",
        "0ad7aeb0e6b19a76d38ea72ca90b1a00baf0ce361e9a4bf1ef23a2bde4dd8454"),
    "mint": (
        "2a77d8a0aa8e4084764d2f98c83ef69b24cd481f735d3bf5f28686a225a2bc33",
        "0f8515e68230f411ce8c66c513f52c728ada8fea94f71f0d74e64ff48797ef39"),
    "pride": (
        "24a678ea42d61f1e78e45e7abc3063652bd7c2043c6004310bf3561e10fdba26",
        "6d5b50a661eb30547b653eb605eed9dd43a25446e0add51cd501af5c79d12363"),
    "trr": (
        "7c14104ac48162054995c6709c43d31da1fe5039d03ddec847fbe6511950f532",
        "3291abee47b79b46097402519903cfd0794dd859f07c2903b8623bd36e0e58f4"),
    "baseline": (
        "5a05615996da5ce33dce765d9c69aca45c1f8c294698c6b8dd6eb6595e3b4175",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
    "mopac-d-nup": (
        "ef53011a8b50900faddb3606730f0ad0b956c486aa03f33dd4c1b1b6981f5232",
        "90d090ac52f2e21ffa4313bda015adc22eed07dedf69fe64c063404182640a75"),
    "mopac-c+knobs": (
        "e1d9db4067037b0d5cd312d321b2b214dca5345b666ba6c51595631243d9befe",
        "6fcf25032295eeb46d005c98b26a880f391bcd8411e9259261b906153183f031"),
    "mopac-d+knobs": (
        "9aa159efc6e23452258afd279a3a5eddae8f34bb0870b77a7cee0421b246e85a",
        "6430be3ca32272cd44bd57ea81c3e10cca1f82fce54d153669328d6cb9fc7995"),
    "mopac-d-nup+knobs": (
        "3445715383d2dc359c1569d4827442a780fa7106fd65b6d176a6039345daea9e",
        "97cf23887419b5e42eb77b3706316141065a45d6f79ba39694d14ea80d05095f"),
    "fancy": (
        "d35fdcd11e7a3ce4a7b3f6d30614a292e46ec8f01fda4913f14393eeba499347",
        "1ae79dc4669ee6af34aa7cf962e688e46e4348f8bd73d2b6a2b6ec83b1d20a7f"),
    "fancy.baseline": (
        "ba5379d507a33ea893dd7cd08eed05df84c0158b120171eb209e6b063907eda5",
        "39120304f6a0c93f799b8d4ca4d803876b3675df0bc9c868578677583bb468a5"),
    "mopac-d+knobs.baseline": (
        "5a05615996da5ce33dce765d9c69aca45c1f8c294698c6b8dd6eb6595e3b4175",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
}


def journal_line(points):
    job = Job(id="job-7", points=list(points), priority=3, timeout_s=12.5,
              submitted_s=1_700_000_000.25)
    return json.dumps(job.submit_record())


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(autouse=True)
def _no_user_salt(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_SALT", raising=False)


def test_every_buildable_design_is_pinned():
    assert set(DESIGNS) | {f"{d}+knobs" for d in KNOBBED} | {
        "fancy", "fancy.baseline", "mopac-d+knobs.baseline"} == set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_point_key_is_pinned(name):
    assert point_key(CASES[name]) == PINS[name][0]


@pytest.mark.parametrize("name", sorted(PINS))
def test_journal_line_is_pinned(name):
    line = journal_line([CASES[name]])
    assert sha256(line) == PINS[name][1]
    assert job_from_record(json.loads(line)).points == [CASES[name]]


@pytest.mark.parametrize("design", DESIGNS)
def test_baseline_of_default_point_is_pinned(design):
    base = default(design).baseline()
    assert point_key(base) == PINS["baseline"][0]
    assert sha256(journal_line([base])) == PINS["baseline"][1]


def test_multi_point_journal_line_is_pinned():
    # holds every case, so it moved with the two re-pinned knob points
    line = journal_line(CASES[name] for name in sorted(PINS))
    assert sha256(line) == ("5d687e567cc548cebe1b2753ddb5e8fc"
                            "bd15b43e03f703468122e2a0c719842d")


@pytest.mark.parametrize("name", sorted(PINS))
def test_client_sends_every_field(name):
    point = CASES[name]
    assert _point_fields(point) == dataclasses.asdict(point)
    assert DesignPoint(**_point_fields(point)) == point
