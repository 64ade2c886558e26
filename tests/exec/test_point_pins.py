"""Pinned cache keys and journal lines of design points.

A design point reaches bytes in two places: its result-cache key
(``point_key``, a sha256 over its fields) and the daemon's journal
submit record (``Job.submit_record``). Both must stay byte-stable
across refactors of how the field dict is built; a moved key orphans
every cached result and a moved journal line changes what a restarted
daemon replays. The pins below were taken before the field dict was
built shallowly and must never move without a ``CACHE_SALT`` bump.
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
        "cd5107733fcb1267c45c6106cbe5bd2eb64231e65b5adb9d79737820e663cc5c",
        "6a85b303a9ab568aaa64b167092b057607dc34677595a7bb35171607038be915"),
    "moat": (
        "2102e40f3afa914dd036063b099a9d3c3c6726c382247cde90c2275291ee354a",
        "67833f0d28174b0e1da6afd25eaae042c8b061d150d88e3fff44c2a8ea290922"),
    "qprac": (
        "a2f677c164bb57bf9f02a259310ab1e2b84c8d2e08278a1cf8d92817e3bc355e",
        "dc2b5c11a2547da9f318869d1609c2bf6ea72323e12cc9a2b6473d048512e29f"),
    "qprac-proactive": (
        "6f27930441e6c3e067580300dcd2e72c0723733604d1a257c8d88e06a1be1d7f",
        "9b24dde677d18335ddfe5e536457a8b2bd96421177a1dc6a3bdf23892af01a50"),
    "cnc-prac": (
        "aacd3e6a3777398b01596086ed298fe8eac1226dc5d1e259c68061dec281547c",
        "a16d6e47af3fe62f5f0cad9452af163b05f37090b3999fe5571e6c9f5c01eb95"),
    "practical": (
        "22071418c6eedc9d0c62f0ae94325427127dba84cdb31de1ebde8741928c0b53",
        "f0a9b07ec1b53f52d0bcf7774a00671bee9fde330f22493814e7b7bc9d2ab1d3"),
    "mopac-c": (
        "2b69b39a0eb2e391bd815d2152b0ec85c1ad7511974a68468933e56509cb7515",
        "2550a441cab8f81633f478525cfd36e9b19b5c5d65f5a69658e7bbbabe8d88af"),
    "mopac-d": (
        "18c90440c4174f83daaffe0732a90020ebc7f6b190f87cc26b32033bf3c48d03",
        "0ad7aeb0e6b19a76d38ea72ca90b1a00baf0ce361e9a4bf1ef23a2bde4dd8454"),
    "mint": (
        "afd84bc4f55394c8f5ffefbd6677b1da93c6513c023410a1985173b784fc6cbf",
        "0f8515e68230f411ce8c66c513f52c728ada8fea94f71f0d74e64ff48797ef39"),
    "pride": (
        "057b878820ac595b14cbba70f44739b0795ec52924b4be708b645fa8f9f97760",
        "6d5b50a661eb30547b653eb605eed9dd43a25446e0add51cd501af5c79d12363"),
    "trr": (
        "8cc6addc727eab0af77d0b2d6b2df63f07061e0331359cfa3ac6fc70c2db1923",
        "3291abee47b79b46097402519903cfd0794dd859f07c2903b8623bd36e0e58f4"),
    "baseline": (
        "e1a9581d5845e633e02edc3c566a5ef8e5ba65a7e8027191160463de2d29972f",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
    "mopac-d-nup": (
        "a5cf6926eabf4acb3eae746a1caa40952758a5878b007e3c92105b049f8d77fc",
        "90d090ac52f2e21ffa4313bda015adc22eed07dedf69fe64c063404182640a75"),
    "mopac-c+knobs": (
        "1c27259c7b9435d0ac7f30640c423537db3b4e96861a62a9c7966e902583729b",
        "3ee460071d337265938ae0342fd7afa0c00f4375fc0e0b3bfeae5f2d5b213a3c"),
    "mopac-d+knobs": (
        "c0c410d75e40b39c9041827c45d0dd447c8906c50332a082a124534890907ff8",
        "6430be3ca32272cd44bd57ea81c3e10cca1f82fce54d153669328d6cb9fc7995"),
    "mopac-d-nup+knobs": (
        "988eb7fb2cdad15fa137bd1771813df9d131d07f03e8152f9d4e2d84aec350ae",
        "3161a21d1aced45ce159d50e954b1cef24b1c4142cdf48a660064691050f0072"),
    "fancy": (
        "a5271cbe3cf9294a4510dce7dda184e0d492360437c3e45a901f3c4b75c14617",
        "1ae79dc4669ee6af34aa7cf962e688e46e4348f8bd73d2b6a2b6ec83b1d20a7f"),
    "fancy.baseline": (
        "29ea1d951864628618b4e780d363d62b519ebad9b69f8170101bc805c534cce2",
        "39120304f6a0c93f799b8d4ca4d803876b3675df0bc9c868578677583bb468a5"),
    "mopac-d+knobs.baseline": (
        "e1a9581d5845e633e02edc3c566a5ef8e5ba65a7e8027191160463de2d29972f",
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
