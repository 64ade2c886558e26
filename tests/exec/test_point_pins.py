"""Pinned cache keys and journal lines of design points.

A design point reaches bytes in two places: its result-cache key
(``point_key``, a sha256 over its fields) and the daemon's journal
submit record (``Job.submit_record``). Both must stay byte-stable
across refactors of how the field dict is built; a moved key orphans
every cached result and a moved journal line changes what a restarted
daemon replays. The journal pins were taken before the field dict was
built shallowly; the key pins were retaken when ``SCHEMA_VERSION``
became 4 (the key hashes it). Neither may move without a
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
        "94c36f7fe4f1a65d7101e0711cb29fcbf4d53967bff478723685b943e0b982ef",
        "6a85b303a9ab568aaa64b167092b057607dc34677595a7bb35171607038be915"),
    "moat": (
        "ad81c4cea486a03704fc524f96545284ab198875a09f18c03347e440da4ae13e",
        "67833f0d28174b0e1da6afd25eaae042c8b061d150d88e3fff44c2a8ea290922"),
    "qprac": (
        "6ce984a8be39c6cd51f33cb9f1fd15270ffaaaf82a93981eb145bcd35f531503",
        "dc2b5c11a2547da9f318869d1609c2bf6ea72323e12cc9a2b6473d048512e29f"),
    "qprac-proactive": (
        "dc429643e9110ebfc63dd11e930a0c93b5d09a2fc53dd8b445fb2502203f81b8",
        "9b24dde677d18335ddfe5e536457a8b2bd96421177a1dc6a3bdf23892af01a50"),
    "cnc-prac": (
        "136988e7db9defba1a05857f24c384c2187be8294412ad4ff821cf8be862e59c",
        "a16d6e47af3fe62f5f0cad9452af163b05f37090b3999fe5571e6c9f5c01eb95"),
    "practical": (
        "585cd1ef2b7bbc8cd537d4e9153034f6cd9a5b0b867d50df1eba84ce1380c956",
        "f0a9b07ec1b53f52d0bcf7774a00671bee9fde330f22493814e7b7bc9d2ab1d3"),
    "mopac-c": (
        "2e2d6651185361fc9fd09c3d58ad0144f635acbcafaf667f1df747260001ae61",
        "2550a441cab8f81633f478525cfd36e9b19b5c5d65f5a69658e7bbbabe8d88af"),
    "mopac-d": (
        "8a2213005fb3c2d1d550ff8612d1e11c23630844a8dbba7aed1012360ab28da1",
        "0ad7aeb0e6b19a76d38ea72ca90b1a00baf0ce361e9a4bf1ef23a2bde4dd8454"),
    "mint": (
        "837e6ed26e14e53ab56c01d5d5b50915ec382ad3091a2cf6506e3b592590df3e",
        "0f8515e68230f411ce8c66c513f52c728ada8fea94f71f0d74e64ff48797ef39"),
    "pride": (
        "af942e41048242995122cf39234131f14ad792bfdaaf0cb0243744a2aa559b8f",
        "6d5b50a661eb30547b653eb605eed9dd43a25446e0add51cd501af5c79d12363"),
    "trr": (
        "c3056d67bc1bc888d6c276c29e9115c1875e3fff88b669f6ffb31dfa3597fb1c",
        "3291abee47b79b46097402519903cfd0794dd859f07c2903b8623bd36e0e58f4"),
    "baseline": (
        "01c2cb222afff807c62008cbb34ea86f386c1676099755b9546a045b0f275c7b",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
    "mopac-d-nup": (
        "6e869ce6a5732b9bb515a53d657b2776c1badd91f15d1ea4c5ed6d29b5456333",
        "90d090ac52f2e21ffa4313bda015adc22eed07dedf69fe64c063404182640a75"),
    "mopac-c+knobs": (
        "9243f5d14b9593c111d7a2632b35e10555a0697e09e0f657d58ba7600d17cd58",
        "3ee460071d337265938ae0342fd7afa0c00f4375fc0e0b3bfeae5f2d5b213a3c"),
    "mopac-d+knobs": (
        "f1df090edaac38c08b8b430f7e05dad28107bd56fbe40b0592c0783e0463ac7b",
        "6430be3ca32272cd44bd57ea81c3e10cca1f82fce54d153669328d6cb9fc7995"),
    "mopac-d-nup+knobs": (
        "9d66971c751ca2868b7d687cd74ba54962464bb16dbd9eceb782add91b1cf18a",
        "3161a21d1aced45ce159d50e954b1cef24b1c4142cdf48a660064691050f0072"),
    "fancy": (
        "7abcf79f4d35c0553ce02fc18c366df85867c9650f7fa2a9c1f4071ba5f05d79",
        "1ae79dc4669ee6af34aa7cf962e688e46e4348f8bd73d2b6a2b6ec83b1d20a7f"),
    "fancy.baseline": (
        "93f3692b60a566afc49243309ec28a21013e8620f4695adae8765d7fb4b749b3",
        "39120304f6a0c93f799b8d4ca4d803876b3675df0bc9c868578677583bb468a5"),
    "mopac-d+knobs.baseline": (
        "01c2cb222afff807c62008cbb34ea86f386c1676099755b9546a045b0f275c7b",
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
