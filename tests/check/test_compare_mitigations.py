"""The §9.2 cross-mitigation table: one stream, stable output, bad input."""

import hashlib

import pytest

from repro.check import differential
from repro.tools import campaign

SMALL = dict(trh=250, activations=6_000)

#: sha256 of the CSV ``compare_mitigations(**SMALL)`` writes; a change
#: to the harness, a policy or the table rendering moves it
SMALL_CSV_SHA256 = \
    "9ce3bd30228d013f5fa13bad2e8d895a6e15482cb858118d0a444457c377c698"


def test_table_is_pinned(tmp_path):
    path = tmp_path / "table.csv"
    table, ok = campaign.compare_mitigations(**SMALL, csv_path=path)
    assert ok, table
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == SMALL_CSV_SHA256


def test_one_target_stream_per_table(monkeypatch):
    calls = []
    make_targets = differential.make_targets

    def counted(*args, **kwargs):
        calls.append(args)
        return make_targets(*args, **kwargs)

    monkeypatch.setattr(differential, "make_targets", counted)
    campaign.compare_mitigations(**SMALL)
    assert len(calls) == 1


def test_baseline_is_the_reference_not_a_row(tmp_path):
    path = tmp_path / "table.csv"
    campaign.compare_mitigations(**SMALL, designs=("prac", "trr"),
                                 csv_path=path)
    designs = [line.split(",")[0]
               for line in path.read_text().splitlines()[1:]]
    assert designs == ["prac", "trr"]


@pytest.mark.parametrize("activations", [0, -3])
def test_non_positive_activations_raise(activations):
    with pytest.raises(ValueError, match="activations"):
        campaign.compare_mitigations(trh=250, activations=activations)


def test_cli_rejects_zero_activations(capsys):
    with pytest.raises(SystemExit) as exit_info:
        campaign.main(["compare-mitigations", "--activations", "0"])
    assert exit_info.value.code == 2
    assert "activations" in capsys.readouterr().err
