"""Property-based invariants of the ground-truth ledger."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.ledger import HammerLedger

ops = st.lists(
    st.tuples(st.sampled_from(["act", "act", "act", "mitigate", "refresh"]),
              st.integers(0, 1), st.integers(0, 63)),
    min_size=1, max_size=300)


def drive(op_list, trh=50):
    ledger = HammerLedger(banks=2, rows=64, trh=trh, refresh_groups=8)
    acts = 0
    for op, bank, row in op_list:
        if op == "act":
            ledger.on_activate(bank, row)
            acts += 1
        elif op == "mitigate":
            ledger.on_mitigation(bank, row)
        else:
            ledger.on_refresh()
    return ledger, acts


@settings(max_examples=50, deadline=None)
@given(ops)
def test_total_activations_conserved(op_list):
    ledger, acts = drive(op_list)
    assert ledger.total_activations == acts


@settings(max_examples=50, deadline=None)
@given(ops)
def test_max_is_high_water_mark(op_list):
    ledger, _ = drive(op_list)
    current_max = max(max(ledger.counts[b]) for b in range(2))
    assert ledger.max_count >= current_max


@settings(max_examples=50, deadline=None)
@given(ops)
def test_counts_bounded_by_activations(op_list):
    ledger, acts = drive(op_list)
    assert ledger.max_count <= acts


@settings(max_examples=50, deadline=None)
@given(ops)
def test_verdict_matches_threshold(op_list):
    ledger, _ = drive(op_list, trh=10)
    report = ledger.report()
    assert report.attack_succeeded == (report.max_count > 10)


@settings(max_examples=30, deadline=None)
@given(ops)
def test_full_refresh_round_clears_everything(op_list):
    ledger, _ = drive(op_list)
    for _ in range(8):  # one full group rotation
        ledger.on_refresh()
    assert all(sum(ledger.counts[b]) == 0 for b in range(2))
