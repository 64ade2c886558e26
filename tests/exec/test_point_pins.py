"""Pinned cache keys and journal lines of design points.

A design point reaches bytes in two places: its result-cache key
(``point_key``, a sha256 over its fields) and the daemon's journal
submit record (``Job.submit_record``). Both must stay byte-stable
across refactors of how the field dict is built; a moved key orphans
every cached result and a moved journal line changes what a restarted
daemon replays. The journal pins were taken before the field dict was
built shallowly; the key pins were retaken when ``SCHEMA_VERSION``
became 7 (the key hashes it). Neither may move without a
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
        "19690271c59a64a75f42fac8e45f0d2e0e9bdbf56c5af78ffcc7ec46ff1ee0a3",
        "6a85b303a9ab568aaa64b167092b057607dc34677595a7bb35171607038be915"),
    "moat": (
        "b5c7bd35bfa05d7e82bd63d934d8ec9f982146776a92952f8a29ad5c7720ee38",
        "67833f0d28174b0e1da6afd25eaae042c8b061d150d88e3fff44c2a8ea290922"),
    "qprac": (
        "53b2729db723bb2f0acfdee6ab6bfdeeee35e75e151e373277de2a9a91a85146",
        "dc2b5c11a2547da9f318869d1609c2bf6ea72323e12cc9a2b6473d048512e29f"),
    "qprac-proactive": (
        "df52fc20f006eabca23dcdfff5b60c4e4e435ae2affc35c997ac2030e9d62812",
        "9b24dde677d18335ddfe5e536457a8b2bd96421177a1dc6a3bdf23892af01a50"),
    "cnc-prac": (
        "8b8bce922795064c0d9ea5422fbe5d6608eb7e34ab1aedf214f8babb5f9b4126",
        "a16d6e47af3fe62f5f0cad9452af163b05f37090b3999fe5571e6c9f5c01eb95"),
    "practical": (
        "49119223691ef6451f3799faf0f2299c6f69ca74c544d835ec3d9b1b07ced5cd",
        "f0a9b07ec1b53f52d0bcf7774a00671bee9fde330f22493814e7b7bc9d2ab1d3"),
    "mopac-c": (
        "9f3e61244eb21e2c9cd2a6081363910e266055dbff4a206d516648fa37cec7ad",
        "2550a441cab8f81633f478525cfd36e9b19b5c5d65f5a69658e7bbbabe8d88af"),
    "mopac-d": (
        "14d4e2d053121f0c70b97d81fd98c890e6fd76ff89bb96b758957d63ba28ed7e",
        "0ad7aeb0e6b19a76d38ea72ca90b1a00baf0ce361e9a4bf1ef23a2bde4dd8454"),
    "mint": (
        "f1d6bd770033f3b5e17e55cb51a3d98c4add5f22ad70e757bd49b5854f0d3784",
        "0f8515e68230f411ce8c66c513f52c728ada8fea94f71f0d74e64ff48797ef39"),
    "pride": (
        "8a74ec8b68d67613a56adf3a63c5605928c8ddd1e54ffffabfb63f5957e1808f",
        "6d5b50a661eb30547b653eb605eed9dd43a25446e0add51cd501af5c79d12363"),
    "trr": (
        "31eaf767cb518089fb4bf8fb28764149ce1fb0fe240c2faad03742c11851eb0f",
        "3291abee47b79b46097402519903cfd0794dd859f07c2903b8623bd36e0e58f4"),
    "baseline": (
        "54fb03f76dabe76fd771cc770e9d9c189ca3730bbc3eee944f38cb9dbe2f92fa",
        "d58c0facab2f6f7e45474e8731073abe4a12e77ffae8944edec67a6cd989c09d"),
    "mopac-d-nup": (
        "1041b08a9b9757695a3f6c54e95bed38f6512d1a147cd9194e2546bbac3be8b6",
        "90d090ac52f2e21ffa4313bda015adc22eed07dedf69fe64c063404182640a75"),
    "mopac-c+knobs": (
        "1803336c3e6f9c070832acf8bd57e5d7084ac0ac933d17e990966f4a497a8226",
        "6fcf25032295eeb46d005c98b26a880f391bcd8411e9259261b906153183f031"),
    "mopac-d+knobs": (
        "50b9f77df9764e634da92bd22253c047b725e744faa46b739e99f2283b5588ea",
        "6430be3ca32272cd44bd57ea81c3e10cca1f82fce54d153669328d6cb9fc7995"),
    "mopac-d-nup+knobs": (
        "b431b2c489fb3e8931dc3c56480cb9e340ba3d45ad5739a213c98ab2fca3d54b",
        "97cf23887419b5e42eb77b3706316141065a45d6f79ba39694d14ea80d05095f"),
    "fancy": (
        "afaa1ca36f24cd7a3f5de9007b93858d7afae1abc9491d9be10694cc93d0a55c",
        "1ae79dc4669ee6af34aa7cf962e688e46e4348f8bd73d2b6a2b6ec83b1d20a7f"),
    "fancy.baseline": (
        "4660d4e038e32e60ef2ace138861fe1b2e19563925ea50264e937350d018a03e",
        "39120304f6a0c93f799b8d4ca4d803876b3675df0bc9c868578677583bb468a5"),
    "mopac-d+knobs.baseline": (
        "54fb03f76dabe76fd771cc770e9d9c189ca3730bbc3eee944f38cb9dbe2f92fa",
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
