"""Pinned cache keys and journal lines of design points.

A design point reaches bytes in two places: its result-cache key
(``point_key``, a sha256 over its fields) and the daemon's journal
submit record (``Job.submit_record``). Both must stay byte-stable
across refactors of how the field dict is built; a moved key orphans
every cached result and a moved journal line changes what a restarted
daemon replays. The journal pins were taken before the field dict was
built shallowly; the key pins were retaken when ``SCHEMA_VERSION``
became 5 (the key hashes it). Neither may move without a
``CACHE_SALT`` or ``SCHEMA_VERSION`` bump.
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
    "mopac-c": dict(p=1 / 32, rowpress=True),
    "mopac-d": dict(p=0.25, srq_size=32, drain_on_ref=3, chips=4,
                    sampler="para", abo_level=2, rowpress=True),
    "mopac-d-nup": dict(p=1 / 16, srq_size=8, drain_on_ref=1, chips=2,
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
        "337865574466e96bf07d38fd2da18a35e110cf7c624f50a015c38437a7c68c04",
        "6a85b303a9ab568aaa64b167092b057607dc34677595a7bb35171607038be915"),
    "moat": (
        "f0dd3b549a189994c8e5bc6072600897fedeb0f30905be739bc1336af9afd72b",
        "67833f0d28174b0e1da6afd25eaae042c8b061d150d88e3fff44c2a8ea290922"),
    "qprac": (
        "084df9d6a650d392bd3a66b8d9d2e4ce9ef370e932f04ea1298cff63a1c56e8a",
        "dc2b5c11a2547da9f318869d1609c2bf6ea72323e12cc9a2b6473d048512e29f"),
    "qprac-proactive": (
        "2770d14f320d63d87ec33623ee47baaeb06c354544f791b2d8a3392a50849911",
        "9b24dde677d18335ddfe5e536457a8b2bd96421177a1dc6a3bdf23892af01a50"),
    "cnc-prac": (
        "2325801b834182c2dcbc8b69b4c57713234f72295b9bfc8e2467af6a49f2174f",
        "a16d6e47af3fe62f5f0cad9452af163b05f37090b3999fe5571e6c9f5c01eb95"),
    "practical": (
        "11fed56f85bc9b677997b3cd5eecdd40666bba70f143d1385089d92a846027ba",
        "f0a9b07ec1b53f52d0bcf7774a00671bee9fde330f22493814e7b7bc9d2ab1d3"),
    "mopac-c": (
        "8ef5bcab2bbf42b342c95073f28ff7fc49291ed724034ecfca1937434f172e66",
        "2550a441cab8f81633f478525cfd36e9b19b5c5d65f5a69658e7bbbabe8d88af"),
    "mopac-d": (
        "fc86416e93438444d0eb5c66ed34b87174e568c9d4128af181275a08b714145f",
        "0ad7aeb0e6b19a76d38ea72ca90b1a00baf0ce361e9a4bf1ef23a2bde4dd8454"),
    "mint": (
        "0147cb6af9214a46a3706570408ddd21dc51cbab44f31a9b5bb8ee5110573899",
        "0f8515e68230f411ce8c66c513f52c728ada8fea94f71f0d74e64ff48797ef39"),
    "pride": (
        "5b4cc9d8b28fcab55cea841255438c173c2570e71ccc8690a2bdaccef12b140d",
        "6d5b50a661eb30547b653eb605eed9dd43a25446e0add51cd501af5c79d12363"),
    "trr": (
        "2dd1761d9af0f66bab97513b0ce07edcb7819428740069acddd53a807c6c49d7",
        "3291abee47b79b46097402519903cfd0794dd859f07c2903b8623bd36e0e58f4"),
    "baseline": (
        "fabf13418cce20ecbd30b2c58f44fdfccf055b081cc8e847f4b2b489edbec2a9",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
    "mopac-d-nup": (
        "114ec3500ca66ed7176a0e9944a5ca8b7f497b5b1dc360be48bbc4b2471c672c",
        "90d090ac52f2e21ffa4313bda015adc22eed07dedf69fe64c063404182640a75"),
    "mopac-c+knobs": (
        "c5a68ea53feafe12e4c51f13f31db2ee1824bd0daa3e0193cdfa3ac6875d4fbc",
        "3ee460071d337265938ae0342fd7afa0c00f4375fc0e0b3bfeae5f2d5b213a3c"),
    "mopac-d+knobs": (
        "436d1da11effc9ad56f523f7e650dab77124f5474878f304199a862c6bdd49ca",
        "6430be3ca32272cd44bd57ea81c3e10cca1f82fce54d153669328d6cb9fc7995"),
    "mopac-d-nup+knobs": (
        "189b6f3eff18624121ea42250cbd9ed1790ea620b235e44e91aa95b41eeb852a",
        "3161a21d1aced45ce159d50e954b1cef24b1c4142cdf48a660064691050f0072"),
    "fancy": (
        "a77206c15ae86e04390d7c164dd93ea4e06e704c3cbb4b6e0deca58d08c2dd5d",
        "1ae79dc4669ee6af34aa7cf962e688e46e4348f8bd73d2b6a2b6ec83b1d20a7f"),
    "fancy.baseline": (
        "89ad847eac1daccf52224b392f9de78c60c7fdf6cb114d058d6179a2547ec559",
        "39120304f6a0c93f799b8d4ca4d803876b3675df0bc9c868578677583bb468a5"),
    "mopac-d+knobs.baseline": (
        "fabf13418cce20ecbd30b2c58f44fdfccf055b081cc8e847f4b2b489edbec2a9",
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
    line = journal_line(CASES[name] for name in sorted(PINS))
    assert sha256(line) == ("3aa2dd724e008ffd8900aac309072ab8"
                            "bbbc54911942fa5b3639ddeadac166a4")


@pytest.mark.parametrize("name", sorted(PINS))
def test_client_sends_every_field(name):
    point = CASES[name]
    assert _point_fields(point) == dataclasses.asdict(point)
    assert DesignPoint(**_point_fields(point)) == point
