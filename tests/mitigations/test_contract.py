"""Shared mitigation contract suite, parametrized over the registry.

Every design registered in :mod:`repro.mitigations.registry` is held to
the contract its spec declares, with no per-design test code:

* **registry shape** — the factory builds a policy whose ``name``
  matches, descriptions and knob docs exist, ``effective_trh`` never
  weakens the threshold;
* **differential invariants** — on one seeded adversarial stream the
  security ledger stays clean (secure designs), exact designs conserve
  counters against the exact-PRAC shadow with identically-zero
  telemetry drift, sampled designs stay within the drift bound;
* **seed-replay determinism** — the same ``(seed, stream)`` reproduces
  the same run bit-for-bit, twice;
* **one constructor** — the simulator's per-sub-channel policy for a
  design point is the registry's policy for the same design, geometry
  and base timing, and stochastic designs give each sub-channel its own
  stream;
* **one derivation** — a MoPAC policy's ATH*, C and p are its
  derivation entry point's, Row-Press and NUP included;
* **golden coverage** — every design has a golden fingerprint case
  (stats and traced command stream, ``repro.check.golden``);
* **forced recovery paths** — the ALERT/RFM backstops that benign
  streams rarely reach (QPRAC's queue overflow, PRACtical's bank-scoped
  recovery through the real memory controller + conformance oracle);
* **refresh modes** — one all-bank REF leaves the same state as a
  same-bank REF of every bank in order;
* **ALERT episodes** — after its RFMs, a design asserts ALERT again
  only once a new activation has arrived.
"""

import functools
import random

import pytest

from repro.attacks.harness import AttackHarness
from repro.check import golden
from repro.check.differential import run_differential
from repro.check.oracle import ConformanceOracle, OracleConfig
from repro.config import DRAMConfig
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.pagepolicy import make_page_policy
from repro.mc.request import MemRequest
from repro.mitigations import registry
from repro.mitigations.practical import PRACticalPolicy
from repro.obs.registry import Histogram
from repro.obs.tracer import EventTracer
from repro.security.csearch import mopac_c_params, mopac_d_params
from repro.sim.runner import DesignPoint, build_config, make_policy_factory

DESIGNS = registry.names()

#: one differential run shared by the invariant tests (module-import
#: cost, not per-test) — small but adversarial enough to mitigate
DIFF = run_differential(trh=250, activations=12_000, banks=4, rows=256,
                        refresh_groups=64, seed=0xD1FF)
OUTCOMES = {o.design: o for o in DIFF.outcomes}


def _spec(design):
    return registry.get(design)


# ---------------------------------------------------------------------------
# Registry shape
# ---------------------------------------------------------------------------
class TestRegistryShape:
    def test_registry_is_nonempty_and_unique(self):
        assert len(DESIGNS) == len(set(DESIGNS)) >= 11

    @pytest.mark.parametrize("design", DESIGNS)
    def test_factory_builds_named_policy(self, design):
        policy = registry.make_policy(design, 250, banks=2, rows=64,
                                      refresh_groups=32, seed=1)
        assert policy.name == design

    @pytest.mark.parametrize("design", DESIGNS)
    def test_spec_documents_itself(self, design):
        spec = _spec(design)
        assert spec.description
        assert spec.knobs, f"{design} has no knob documentation"
        assert all(name and meaning for name, meaning in spec.knobs)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_effective_trh_never_weakens(self, design):
        spec = _spec(design)
        for trh in (100, 250, 500, 10_000):
            assert spec.effective_trh(trh) >= trh

    @pytest.mark.parametrize("design", DESIGNS)
    def test_timing_class_is_known(self, design):
        assert _spec(design).timing in ("base", "prac", "dual")

    def test_unknown_design_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered:"):
            registry.get("nope")


# ---------------------------------------------------------------------------
# Differential invariants (one shared adversarial stream)
# ---------------------------------------------------------------------------
class TestDifferentialInvariants:
    def test_report_is_clean(self):
        assert DIFF.ok, DIFF.describe()

    def test_every_design_ran(self):
        assert set(OUTCOMES) == set(DESIGNS)

    def test_all_designs_saw_the_same_stream(self):
        totals = {o.total_activations for o in DIFF.outcomes}
        assert len(totals) == 1

    @pytest.mark.parametrize("design", DESIGNS)
    def test_security_ledger_verdict(self, design):
        outcome = OUTCOMES[design]
        if _spec(design).secure:
            assert not outcome.attack_succeeded, (
                f"{design} let a row reach {outcome.max_count} > "
                f"{outcome.effective_trh}")

    @pytest.mark.parametrize(
        "design", [d for d in DESIGNS if registry.get(d).exact])
    def test_exact_designs_conserve_counters(self, design):
        outcome = OUTCOMES[design]
        assert not outcome.counter_mismatches
        assert outcome.stats_conserved
        assert outcome.drift_max == 0 and outcome.drift_total == 0

    @pytest.mark.parametrize(
        "design",
        [d for d in DESIGNS
         if registry.get(d).counting and not registry.get(d).exact])
    def test_sampled_designs_stay_within_drift_bound(self, design):
        outcome = OUTCOMES[design]
        assert 0 < outcome.drift_max <= DIFF.trh

    @pytest.mark.parametrize("design", DESIGNS)
    def test_designs_actually_mitigate(self, design):
        # a design that never services anything is vacuously "clean"
        assert OUTCOMES[design].mitigations > 0


# ---------------------------------------------------------------------------
# Seed-replay determinism
# ---------------------------------------------------------------------------
def _harness_fingerprint(design, seed):
    policy = _spec(design).build(250, banks=2, rows=128, refresh_groups=32,
                                 seed=seed)
    return _policy_fingerprint(policy, design, seed, 2, 128, 32)


def _policy_fingerprint(policy, design, seed, banks, rows, groups):
    from repro.check.differential import make_targets
    harness = AttackHarness(policy, _spec(design).effective_trh(250),
                            banks, rows, groups)
    targets = make_targets(seed, banks, rows, 2_500)
    result = harness.run(iter(targets), 2_500)
    return (result.ledger.max_count, result.elapsed_ps, result.alerts,
            dict(policy.stats.__dict__))


class TestSeedReplayDeterminism:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_same_seed_same_run(self, design):
        assert _harness_fingerprint(design, 7) \
            == _harness_fingerprint(design, 7)


# ---------------------------------------------------------------------------
# One constructor: the simulated policy is the registry's policy
# ---------------------------------------------------------------------------
#: designs that draw from a random stream
STOCHASTIC = {"mopac-c", "mopac-d", "mopac-d-nup", "mint", "pride"}

#: every buildable design, compared or not
BUILDABLE = registry.buildable()


class TestOneConstructor:
    POINT = dict(workload="hammer", trh=250, rows_per_bank=128, seed=7)

    def _pair(self, design, subchannel=0):
        """(runner-built, registry-built) policy for one sub-channel."""
        point = DesignPoint(design=design, **self.POINT)
        config = build_config(point)
        runner = make_policy_factory(point, config)(subchannel)
        direct = registry.make_policy(
            design, 250, config.dram.banks_per_subchannel, 128, seed=7,
            base_timing=config.dram.timing, subchannel=subchannel)
        return runner, direct, config.dram.banks_per_subchannel

    def _fingerprint(self, policy, design, banks):
        return _policy_fingerprint(policy, design, 7, banks, 128, 128)

    def test_every_compared_design_is_buildable(self):
        assert set(DESIGNS) < set(BUILDABLE)
        assert set(BUILDABLE) - set(DESIGNS) == {"baseline", "mopac-d-nup"}

    @pytest.mark.parametrize("design", BUILDABLE)
    def test_runner_policy_is_the_registry_policy(self, design):
        runner, direct, banks = self._pair(design)
        assert type(runner) is type(direct)
        assert OracleConfig.from_policy(runner, banks) \
            == OracleConfig.from_policy(direct, banks)
        assert self._fingerprint(runner, design, banks) \
            == self._fingerprint(direct, design, banks)

    @pytest.mark.parametrize("design", BUILDABLE)
    def test_subchannels_draw_their_own_streams(self, design):
        first, _, banks = self._pair(design, subchannel=0)
        second, _, _ = self._pair(design, subchannel=1)
        same = (self._fingerprint(first, design, banks)
                == self._fingerprint(second, design, banks))
        assert same == (design not in STOCHASTIC)


# ---------------------------------------------------------------------------
# One derivation: a MoPAC policy's parameters are its entry point's
# ---------------------------------------------------------------------------
#: design -> the derivation entry point the policy must agree with
DERIVATIONS = {
    "mopac-c": mopac_c_params,
    "mopac-d": mopac_d_params,
    "mopac-d-nup": functools.partial(mopac_d_params, nup=True),
}


class TestOneDerivation:
    @pytest.mark.parametrize("design,trh,rowpress", [
        (design, trh, rowpress) for design in DERIVATIONS
        for trh in (250, 500, 1000) for rowpress in (False, True)
        if not (design == "mopac-d-nup" and rowpress)])
    def test_policy_params_are_the_entry_points(self, design, trh,
                                                rowpress):
        policy = registry.make_policy(design, trh, 4, 512,
                                      rowpress=rowpress)
        assert policy.params == DERIVATIONS[design](trh, rowpress=rowpress)


# ---------------------------------------------------------------------------
# Golden coverage
# ---------------------------------------------------------------------------
class TestGoldenCoverage:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_design_has_a_golden_case(self, design):
        """Its stats and trace digests are pinned by test_goldens."""
        assert f"design-{design}" in golden.load_goldens()
        assert f"design-{design}" in golden.cases()


# ---------------------------------------------------------------------------
# Forced recovery paths
# ---------------------------------------------------------------------------
class TestForcedAlertPaths:
    def test_qprac_alert_backstop_fires_on_queue_overflow(self):
        # a full queue must not suppress the ABO backstop: the row keeps
        # counting to ATH and the ALERT line asserts
        policy = registry.make_policy("qprac", 100, banks=2, rows=64,
                                      refresh_groups=32, seed=1,
                                      queue_size=1)
        # occupy the single queue slot with a decoy row
        for _ in range(policy.eth):
            policy.on_activate(0, 5, 0)
            policy.on_precharge(0, 5, 0, True)
        assert policy.queue_occupancy(0) == 1
        for _ in range(policy.ath):
            policy.on_activate(0, 9, 0)
            policy.on_precharge(0, 9, 0, True)
        assert policy.alert_requested()
        policy.on_rfm(0)
        assert policy.stats.alerts == 1
        assert policy.counter_value(0, 9) == 0  # hottest row serviced
        assert not policy.alert_requested()

    def test_qprac_proactive_opportunistic_slot_is_never_wasted(self):
        policy = registry.make_policy("qprac-proactive", 100, banks=1,
                                      rows=64, refresh_groups=64, seed=1)
        # a few activations, all below ETH: the queue stays empty
        for _ in range(3):
            policy.on_activate(0, 9, 0)
            policy.on_precharge(0, 9, 0, True)
        policy.on_refresh(0, bank=0)
        assert policy.opportunistic_mitigations == 1
        assert policy.counter_value(0, 9) == 0

    def test_practical_bank_scoped_rfm_through_controller(self):
        """Hammer one bank through the real MC; recovery stalls only it.

        The thresholds are lowered so a short paced stream crosses ATH;
        the traced RFMs must name the hammered bank (not the whole
        sub-channel) and the bank-scope-aware conformance oracle must
        accept the stream, including commands other banks issued inside
        the recovery window.
        """
        policy = PRACticalPolicy(trh=100, banks=4, rows=64,
                                 refresh_groups=64, subarrays=4)
        policy.ath, policy.eth = 6, 3
        config = DRAMConfig(banks_per_subchannel=4, rows_per_bank=64)
        events = EventLoop()
        controller = MemoryController(
            subchannel=0, config=config, policy=policy, events=events,
            page_policy=make_page_policy("close"))
        tracer = EventTracer(capacity=200_000)
        controller.tracer = tracer
        policy.tracer = tracer
        policy.tracer_subchannel = 0
        controller.start()
        # bank 1: a 10-row cycle (past the FR-FCFS window) paced past
        # tRC; bank 3: background traffic that must keep flowing
        for i in range(160):
            bank, row = (1, i % 10) if i % 4 else (3, 20 + i % 3)
            when = 120_000 * (i + 1)
            controller.enqueue(MemRequest(0, 0, bank, row, when),
                               now=when)
        deadline = 140_000 * 170
        events.run(stop=lambda t: t > deadline
                   and not controller._alert_in_flight)

        events = tracer.events()
        rfms = [e for e in events if e.kind == "RFM"]
        assert rfms, "hammer never reached the lowered ATH"
        assert all(e.bank == 1 for e in rfms), rfms
        assert policy.stats.alerts > 0
        oracle = ConformanceOracle(OracleConfig.from_policy(
            policy, banks=4, refresh_mode="all-bank"))
        assert oracle.verify(events) == []


# ---------------------------------------------------------------------------
# Base timing: what riding a baseline's run trusts
# ---------------------------------------------------------------------------
#: designs that say every episode runs on the base timings; the sweep
#: engine simulates them on their baseline's run (``runner.run_group``)
BASE_TIMING = tuple(name for name in BUILDABLE
                    if registry.get(name).timing == "base")


class TestBaseTiming:
    POINT = dict(workload="hammer", trh=250, rows_per_bank=128, seed=7)
    #: knobs that must not move a base-timing design off the base set
    KNOBBED = {"mopac-d": [dict(rowpress=True), dict(chips=4),
                           dict(abo_level=2), dict(drain_on_ref=2)],
               "mopac-d-nup": [dict(sampler="para")]}

    def _controller(self, policy, config):
        return MemoryController(0, config.dram, policy, EventLoop())

    @pytest.mark.parametrize("design", BASE_TIMING)
    def test_timing_pair_is_the_baselines(self, design):
        """Grouping trusts ``spec.timing == "base"``; the controller
        derives its tRCD bound and ALERT slack from ``timing_pair()``."""
        for knobs in [{}] + self.KNOBBED.get(design, []):
            point = DesignPoint(design=design, **self.POINT, **knobs)
            config = build_config(point)
            base_factory = make_policy_factory(point.baseline(), config)
            factory = make_policy_factory(point, config)
            for subchannel in range(config.dram.subchannels):
                policy = factory(subchannel)
                base = base_factory(subchannel)
                assert policy.timing == base.timing == config.dram.timing
                assert policy.timing_pair() == base.timing_pair()
                mine = self._controller(policy, config)
                theirs = self._controller(base, config)
                assert (mine._trcd_bound, mine._fresh_slack) == \
                    (theirs._trcd_bound, theirs._fresh_slack)

    def test_the_base_timing_designs(self):
        assert set(BASE_TIMING) == {"baseline", "cnc-prac", "mopac-d",
                                    "mopac-d-nup", "mint", "pride", "trr"}


# ---------------------------------------------------------------------------
# Refresh modes: REFab is one REFsb round
# ---------------------------------------------------------------------------
#: a small geometry whose rows a seeded stream hammers into ALERTs
SMALL_GEO = dict(banks=4, rows=128, refresh_groups=16)


def _hammer_stream(seed, count):
    """``count`` seeded (bank, row) ACTs, most of them on 5 hot rows
    (three adjacent, so mitigations disturb hot neighbours)."""
    rng = random.Random(seed)
    hot = (10, 40, 64, 65, 66)
    for _ in range(count):
        bank = rng.randrange(SMALL_GEO["banks"])
        row = (rng.choice(hot) if rng.random() < 0.9
               else rng.randrange(SMALL_GEO["rows"]))
        yield bank, row


def _activate(policy, bank, row, now):
    """One whole episode: ACT, then the closing precharge."""
    decision = policy.on_activate(bank, row, now)
    policy.on_precharge(bank, row, now, decision.counter_update)


def _serve_alert(policy, now):
    """The ABO protocol: ``abo_level`` RFMs while ALERT is asserted."""
    if policy.alert_requested():
        for _ in range(policy.abo_level):
            policy.on_rfm(now)


def _plain(value):
    """A snapshot value with its histograms as comparable tuples."""
    if isinstance(value, Histogram):
        return value.counts, value.count, value.total
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _state(policy, mitigations):
    """Everything one refresh mode could leave differently."""
    banks, rows = SMALL_GEO["banks"], SMALL_GEO["rows"]
    security = (None if policy.security is None
                else _plain(policy.security.as_dict(policy.stats)))
    return ([[policy.counter_value(b, r) for r in range(rows)]
             for b in range(banks)],
            policy.stats.as_dict(),
            [(e.bank, e.row, e.time_ps) for e in mitigations],
            security, policy.alert_requested())


class TestRefreshModes:
    @pytest.mark.parametrize("design", BUILDABLE)
    def test_all_bank_ref_is_a_same_bank_round(self, design):
        """``on_refresh(now)`` == ``on_refresh(now, bank=b)`` for each
        bank in order, round after round, with ALERTs served."""
        all_bank, same_bank = (
            registry.make_policy(design, 100, seed=3, **SMALL_GEO)
            for _ in range(2))
        mitigations = ([], [])
        stream = _hammer_stream(0x5EF, 40 * 300)
        now = 0
        for _ in range(40):
            for _ in range(300):
                bank, row = next(stream)
                now += 50_000
                for policy, drained in zip((all_bank, same_bank),
                                           mitigations):
                    _activate(policy, bank, row, now)
                    _serve_alert(policy, now)
                    drained += policy.drain_mitigations()
            now += 50_000
            all_bank.on_refresh(now)
            for bank in range(SMALL_GEO["banks"]):
                same_bank.on_refresh(now, bank=bank)
            for policy, drained in zip((all_bank, same_bank), mitigations):
                drained += policy.drain_mitigations()
            assert _state(all_bank, mitigations[0]) \
                == _state(same_bank, mitigations[1])
        assert all_bank.stats.activations == 40 * 300


# ---------------------------------------------------------------------------
# ALERT episodes: no new ALERT without a new ACT
# ---------------------------------------------------------------------------
#: designs that keep activation counters, which is what ALERT is raised
#: from; the others (baseline, mint, pride, trr) never assert it
ALERTING = tuple(d for d in BUILDABLE if registry.get(d).counting)


class TestAlertEpisodes:
    def _check_episodes(self, design, **knobs):
        """Episodes stay open across other banks' ACTs, REFs and the
        RFMs; every ALERT must follow an ACT that came after the last
        RFM, and no RFM of an episode may re-assert it."""
        policy = registry.make_policy(design, 100, seed=5, **SMALL_GEO,
                                      **knobs)
        rng = random.Random(0xA1E)
        open_rows: dict[int, tuple[int, bool]] = {}
        acted = True  # an ACT since the last RFM
        episodes = 0
        now = 0
        for bank, row in _hammer_stream(0xA1E, 20_000):
            now += 50_000
            if bank in open_rows:
                open_row, counter_update = open_rows.pop(bank)
                policy.on_precharge(bank, open_row, now, counter_update)
            else:
                decision = policy.on_activate(bank, row, now)
                open_rows[bank] = (row, decision.counter_update)
                acted = True
            if rng.random() < 1 / 300:
                policy.on_refresh(now)
            if not policy.alert_requested():
                continue
            assert acted, "ALERT asserted with no ACT since the last RFM"
            for _ in range(policy.abo_level):
                policy.on_rfm(now)
                assert not policy.alert_requested()
            acted = False
            episodes += 1
        assert episodes >= 3

    def test_the_alerting_designs(self):
        assert set(BUILDABLE) - set(ALERTING) \
            == {"baseline", "mint", "pride", "trr"}

    @pytest.mark.parametrize("design", ALERTING)
    def test_no_alert_without_new_activation(self, design):
        self._check_episodes(design)

    def test_no_alert_without_new_activation_abo_level_2(self):
        self._check_episodes("mopac-d", abo_level=2)
