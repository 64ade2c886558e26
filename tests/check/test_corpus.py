"""The pinned per-mitigation seed corpora replay clean, bit-for-bit."""

from pathlib import Path

import pytest

from repro.check.corpus import (CorpusCase, census, load_corpus,
                                replay_corpus_case)
from repro.mitigations import registry

CORPUS_ROOT = Path(__file__).parent / "seeds"

CASES = load_corpus(CORPUS_ROOT)


class TestCorpusShape:
    def test_corpus_exists_and_loads(self):
        assert CASES, "seed corpus is empty"

    def test_every_registered_design_has_cases(self):
        covered = {c.design for c in CASES}
        assert covered == set(registry.names())

    def test_exact_recovery_designs_pin_rfm_coverage(self):
        # the whole point of the corpus: the exact PRAC family must
        # replay at least one ALERT/RFM recovery scenario each
        for design in ("prac", "moat", "cnc-prac", "practical"):
            rfms = [c.expect.get("RFM", 0) for c in CASES
                    if c.design == design]
            assert max(rfms) > 0, f"{design} corpus has no RFM case"

    def test_queue_designs_pin_mitigation_coverage(self):
        for design in ("qprac", "qprac-proactive", "mint", "pride"):
            mits = [c.expect.get("MITIGATE", 0) for c in CASES
                    if c.design == design]
            assert max(mits) > 0, f"{design} corpus has no MITIGATE case"

    def test_census_helper_shape(self):
        counts = census([])
        assert counts["events"] == 0
        assert set(counts) > {"ACT", "RFM", "ALERT", "MITIGATE"}


@pytest.mark.parametrize("entry", CASES, ids=lambda c: c.label)
def test_corpus_case_replays_clean(entry):
    events_checked, failures = replay_corpus_case(entry)
    assert not failures, failures
    assert events_checked == entry.expect["events"]


class TestCorpusRunner:
    def test_missing_root_loads_nothing(self):
        assert load_corpus(CORPUS_ROOT / "does-not-exist") == []

    def test_census_drift_is_reported(self):
        base = CASES[0]
        tampered = CorpusCase(
            design=base.design, master_seed=base.master_seed,
            index=base.index,
            expect={**base.expect, "ACT": base.expect["ACT"] + 1})
        _, failures = replay_corpus_case(tampered)
        assert failures and "census drift" in failures[0]

    def test_design_drift_is_reported(self):
        base = CASES[0]
        other = next(c for c in CASES if c.design != base.design)
        tampered = CorpusCase(
            design=other.design, master_seed=base.master_seed,
            index=base.index, expect=dict(base.expect))
        _, failures = replay_corpus_case(tampered)
        assert failures and "regenerate the corpus" in failures[0]
