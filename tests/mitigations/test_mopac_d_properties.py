"""Property-based invariants of MoPAC-D under random operation streams."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.mopac_d import MoPACDPolicy

GEO = dict(banks=2, rows=128, refresh_groups=8)


def driven_policy(ops, trh=500, **kw):
    """Drive a policy with a random op stream; returns the policy."""
    policy = MoPACDPolicy(trh, **GEO, rng=random.Random(9), **kw)
    now = 0
    for op, value in ops:
        now += 46_000
        if op == "act":
            policy.on_activate(value % 2, value % 128, now)
        elif op == "ref":
            policy.on_refresh(now)
        elif op == "rfm" and policy.alert_requested():
            policy.on_rfm(now)
    return policy


op_stream = st.lists(
    st.tuples(st.sampled_from(["act", "act", "act", "ref", "rfm"]),
              st.integers(0, 400)),
    min_size=1, max_size=400)


@settings(max_examples=40, deadline=None)
@given(op_stream)
def test_srq_never_exceeds_capacity(ops):
    policy = driven_policy(ops, drain_on_ref=0)
    for chip in policy.chips:
        for srq in chip.srqs:
            assert len(srq) <= chip.srq_size


@settings(max_examples=40, deadline=None)
@given(op_stream)
def test_entry_counters_non_negative(ops):
    policy = driven_policy(ops)
    for chip in policy.chips:
        for srq in chip.srqs:
            for entry in srq.values():
                assert entry.actr >= 0
                assert entry.sctr >= 1


@settings(max_examples=40, deadline=None)
@given(op_stream)
def test_counters_never_negative(ops):
    policy = driven_policy(ops)
    for chip in policy.chips:
        for bank in range(chip.prac.banks):
            assert min(chip.prac.counters[bank]) >= 0


@settings(max_examples=40, deadline=None)
@given(op_stream)
def test_insertions_bounded_by_windows(ops):
    """MINT inserts at most one entry per 1/p activations per bank/chip."""
    policy = driven_policy(ops)
    acts = policy.stats.activations
    upper = (acts // policy.inv_p + 2 * GEO["banks"]) * len(policy.chips)
    assert policy.stats.srq_insertions <= upper


@settings(max_examples=30, deadline=None)
@given(op_stream, st.integers(1, 3))
def test_chips_scale_insertions(ops, chips):
    single = driven_policy(ops, chips=1)
    multi = driven_policy(ops, chips=chips)
    # per-chip sampling is independent but identically paced
    assert multi.stats.srq_insertions <= chips * (
        single.stats.srq_insertions + 2 * GEO["banks"])


@settings(max_examples=40, deadline=None)
@given(op_stream)
def test_alert_causes_subset(ops):
    policy = driven_policy(ops, drain_on_ref=0)
    assert policy.alert_causes <= {"mitigation", "srq_full", "tardiness"}
