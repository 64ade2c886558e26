"""Discovery registry for mitigation designs.

Every registered design is described by a :class:`MitigationSpec` — a
factory plus the *contract* the design claims to satisfy (exact counting,
update-per-activation, expected security, tolerated threshold). The
differential harness, the scheduler fuzzer, the shared contract test
suite and the ``campaign compare-mitigations`` table all iterate the
registry instead of hard-coding design lists, so registering a new
mitigation automatically subjects it to:

* the identical-adversarial-stream differential run (security ledger,
  counter-conservation shadow audit, drift bounds),
* the property-based MC scheduler fuzzer + conformance oracle,
* ~30 contract tests (determinism, conservation, engine bit-identity).

:func:`make_policy` is the only policy constructor: the simulator, the
attack CLI, the differential harness and the fuzzer all call it, so a
security verdict covers the instance whose slowdown gets reported.
Stochastic designs draw from ``derive_seed(seed, name) ^ subchannel``;
``base_timing`` (the system's DRAM timing, ``None``: policy defaults)
yields the set :attr:`MitigationSpec.timing` names. ``baseline`` and
``mopac-d-nup`` build by name but stay out of :func:`names`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..dram.timing import MoPACTimings, TimingSet, derive_prac
from ..rng import derive_seed
from .base import MitigationPolicy
from .cnc_prac import CnCPRACPolicy
from .mint import MINTPolicy
from .moat import MOATPolicy
from .mopac_c import MoPACCPolicy
from .mopac_d import MoPACDPolicy
from .prac import BaselinePolicy, PRACMoatPolicy
from .practical import PRACticalPolicy
from .pride import PrIDEPolicy
from .qprac import QPRACPolicy, QPRACProactivePolicy
from .trr import TRRPolicy

#: factory signature: (trh, banks, rows, refresh_groups, seed, **overrides);
#: ``seed`` is already the design's private per-sub-channel seed
PolicyFactory = Callable[..., MitigationPolicy]


@dataclass(frozen=True)
class MitigationSpec:
    """One registered design and the contract it claims to satisfy."""

    name: str
    factory: PolicyFactory
    #: short human description for tables and docs
    description: str = ""
    #: per-row counters conserved exactly vs the exact-PRAC shadow
    #: (counter-conservation audit + identically-zero security drift)
    exact: bool = False
    #: maintains activation counters at all (drift telemetry meaningful)
    counting: bool = True
    #: expected to hold the Rowhammer threshold (False: known-broken
    #: strawman — the differential run *expects* the ledger to complain)
    secure: bool = True
    #: one counter update per activation (coalescing designs are exact
    #: but commit fewer writes than activations)
    update_per_act: bool = False
    #: which timing set(s) episodes run on: "base" | "prac" | "dual"
    timing: str = "prac"
    #: minimum T_RH the design's analysis tolerates (None: trh itself).
    #: The security ledger judges the design at max(trh, tolerated).
    tolerated_trh: Callable[[int], int] | None = None
    #: constructor knobs, (name, meaning): the docs' knob table and the
    #: design-point fields (``repro.sim.runner``) this design accepts
    knobs: tuple[tuple[str, str], ...] = field(default=())

    def takes(self, knob: str) -> bool:
        """Whether ``knob`` is one of this design's declared knobs."""
        return any(name == knob for name, _ in self.knobs)

    def effective_trh(self, trh: int) -> int:
        """Threshold the security verdict holds this design to."""
        if self.tolerated_trh is None:
            return trh
        return max(trh, self.tolerated_trh(trh))

    def timing_overrides(self, base: TimingSet | None) -> dict:
        """Constructor timing arguments for a system whose DRAM runs
        ``base`` (``None``: the policy's own defaults)."""
        if base is None:
            return {}
        if self.timing == "base":
            return {"timing": base}
        if self.timing == "prac":
            return {"timing": derive_prac(base)}
        return {"timings": MoPACTimings(normal=base,
                                        counter_update=derive_prac(base))}

    def build(self, trh: int, banks: int = 32, rows: int = 65536,
              refresh_groups: int | None = None, seed: int = 0, *,
              base_timing: TimingSet | None = None, subchannel: int = 0,
              **overrides) -> MitigationPolicy:
        groups = refresh_groups if refresh_groups is not None \
            else min(8192, rows)
        kwargs = {**self.timing_overrides(base_timing), **overrides}
        policy = self.factory(
            trh=trh, banks=banks, rows=rows, refresh_groups=groups,
            seed=derive_seed(seed, self.name) ^ subchannel, **kwargs)
        assert policy.name == self.name, \
            f"factory for {self.name!r} built {policy.name!r}"
        return policy


_REGISTRY: dict[str, MitigationSpec] = {}


def register(spec: MitigationSpec) -> MitigationSpec:
    """Add ``spec`` to the registry (insertion order is table order)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"mitigation {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> MitigationSpec:
    spec = _REGISTRY.get(name) or _UNCOMPARED.get(name)
    if spec is None:
        raise KeyError(f"unknown mitigation {name!r}; "
                       f"registered: {', '.join(buildable())}")
    return spec


def names() -> tuple[str, ...]:
    """The compared designs, in table order."""
    return tuple(_REGISTRY)


def buildable() -> tuple[str, ...]:
    """Every design :func:`make_policy` builds: the compared ones plus
    ``baseline`` and ``mopac-d-nup``."""
    return names() + tuple(_UNCOMPARED)


def specs() -> tuple[MitigationSpec, ...]:
    return tuple(_REGISTRY.values())


def make_policy(name: str, trh: int, banks: int = 32, rows: int = 65536,
                refresh_groups: int | None = None, seed: int = 0, *,
                base_timing: TimingSet | None = None, subchannel: int = 0,
                **overrides) -> MitigationPolicy:
    """Build a design by name with its design-private derived seed."""
    return get(name).build(trh, banks, rows, refresh_groups, seed,
                           base_timing=base_timing, subchannel=subchannel,
                           **overrides)


# ---------------------------------------------------------------------------
# Registrations. Order = presentation order in comparison tables.
# ---------------------------------------------------------------------------

def _mint_tolerated(trh: int) -> int:
    # deferred: repro.security imports dram/sim machinery that itself
    # imports repro.mitigations (registry loads at package import time)
    from ..security.tolerated import mint_tolerated
    return mint_tolerated(1)


def _pride_tolerated(trh: int) -> int:
    from ..security.tolerated import pride_tolerated
    return pride_tolerated(1)


_ROWPRESS_KNOB = ("rowpress", "Row-Press-derated ATH* (Appendix A)")
_MOPAC_D_KNOBS = (
    ("p", "sampling probability (default: C-search)"),
    ("srq_size", "sampled-row-queue capacity"),
    ("drain_on_ref", "SRQ entries drained per REF (default: Table 8)"),
    ("chips", "DRAM chips, each sampling on its own (Appendix B)"),
    ("sampler", "selection mechanism: mint (paper) or para (footnote 6)"),
    ("abo_level", "RFMs per ALERT (JEDEC menu: 1, 2, 4)"),
    _ROWPRESS_KNOB,
)


register(MitigationSpec(
    name="prac",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        PRACMoatPolicy(trh, banks, rows, refresh_groups, **kw),
    description="Exact PRAC + ABO with the MOAT tracker (paper baseline)",
    exact=True, update_per_act=True, timing="prac",
    knobs=(("trh", "Rowhammer threshold the Table 2 ATH derives from"),),
))

register(MitigationSpec(
    name="moat",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        MOATPolicy(trh, banks, rows, refresh_groups, **kw),
    description="PRAC + MOAT with sweepable ATH/ETH thresholds",
    exact=True, update_per_act=True, timing="prac",
    knobs=(("ath", "ALERT threshold (default: Table 2 model)"),
           ("eth", "mitigation eligibility threshold (default: ATH/2)")),
))

register(MitigationSpec(
    name="qprac",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        QPRACPolicy(trh, banks, rows, refresh_groups, **kw),
    description="PRAC with per-bank priority-queue service at REF",
    exact=True, update_per_act=True, timing="prac",
    knobs=(("queue_size", "per-bank priority-queue capacity"),),
))

register(MitigationSpec(
    name="qprac-proactive",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        QPRACProactivePolicy(trh, banks, rows, refresh_groups, **kw),
    description="QPRAC with multi-service REFs + opportunistic mitigation",
    exact=True, update_per_act=True, timing="prac",
    knobs=(("queue_size", "per-bank priority-queue capacity"),
           ("mitigations_per_ref", "queue entries served per REF shadow"),
           ("opportunistic",
            "serve the MOAT-tracked row when the queue is empty")),
))

register(MitigationSpec(
    name="cnc-prac",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        CnCPRACPolicy(trh, banks, rows, refresh_groups, **kw),
    description="PRAC with coalesced counter updates (flush-on-pressure)",
    exact=True, update_per_act=False, timing="base",
    knobs=(("buffer_size", "coalescing-buffer entries per bank"),
           ("flush_threshold",
            "pending increments forcing an entry flush (derates ATH)")),
))

register(MitigationSpec(
    name="practical",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        PRACticalPolicy(trh, banks, rows, refresh_groups, **kw),
    description="Subarray-level counter update, bank-scoped ABO recovery",
    exact=True, update_per_act=True, timing="dual",
    knobs=(("subarrays", "subarrays per bank (overlap granularity)"),),
))

register(MitigationSpec(
    name="mopac-c",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        MoPACCPolicy(trh, banks, rows, refresh_groups=refresh_groups,
                     rng=random.Random(seed), **kw),
    description="MoPAC-C: MC-side probabilistic PREcu selection",
    exact=False, timing="dual",
    knobs=(("p", "PREcu selection probability (default: C-search)"),
           _ROWPRESS_KNOB),
))

register(MitigationSpec(
    name="mopac-d",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        MoPACDPolicy(trh, banks, rows, refresh_groups=refresh_groups,
                     rng=random.Random(seed), **kw),
    description="MoPAC-D: in-DRAM probabilistic counting with SRQ",
    exact=False, timing="base",
    knobs=_MOPAC_D_KNOBS,
))

register(MitigationSpec(
    name="mint",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        MINTPolicy(banks=banks, rows=rows, refresh_groups=refresh_groups,
                   rng=random.Random(seed), **kw),
    description="MINT: one uniform sample per window, mitigate at REF",
    counting=False, timing="base",
    tolerated_trh=_mint_tolerated,
    knobs=(("window", "sampling window W (activations)"),
           ("refs_per_mitigation", "REFs per granted mitigation")),
))

register(MitigationSpec(
    name="pride",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        PrIDEPolicy(banks=banks, rows=rows, refresh_groups=refresh_groups,
                    rng=random.Random(seed), **kw),
    description="PrIDE: Bernoulli samples into a lossy FIFO, drain at REF",
    counting=False, timing="base",
    tolerated_trh=_pride_tolerated,
    knobs=(("window", "expected activations per sample"),
           ("queue_size", "per-bank FIFO capacity"),
           ("refs_per_mitigation", "REFs per granted mitigation")),
))

register(MitigationSpec(
    name="trr",
    factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
        TRRPolicy(banks=banks, rows=rows, refresh_groups=refresh_groups,
                  **kw),
    description="TRR-style Misra-Gries tracker (known-broken strawman)",
    counting=False, secure=False, timing="base",
    knobs=(("entries", "tracker entries per bank"),
           ("mitigation_threshold", "count required to mitigate"),
           ("refs_per_mitigation", "REFs per service opportunity")),
))

#: buildable by name (get, make_policy, buildable) but not compared:
#: outside names(), so no table row, seed corpus or fuzz draw
_UNCOMPARED = {spec.name: spec for spec in (
    MitigationSpec(
        name="baseline",
        factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
            BaselinePolicy(**kw),
        description="Unprotected DDR5 (the slowdown reference)",
        counting=False, secure=False, timing="base"),
    MitigationSpec(
        name="mopac-d-nup",
        factory=lambda trh, banks, rows, refresh_groups, seed, **kw:
            MoPACDPolicy(trh, banks, rows, refresh_groups=refresh_groups,
                         rng=random.Random(seed), nup=True, **kw),
        description="MoPAC-D with non-uniform sampling probability "
                    "(Section 8)",
        exact=False, timing="base", knobs=_MOPAC_D_KNOBS),
)}
