"""Rowhammer mitigation policies.

Everything here implements the common :class:`MitigationPolicy` interface
and can be plugged into either the full-system simulator
(:mod:`repro.sim`) or the activation-level attack harness
(:mod:`repro.attacks`):

* :class:`BaselinePolicy` — unprotected DDR5,
* :class:`PRACMoatPolicy` — PRAC + ABO with the MOAT tracker (the paper's
  secure-but-slow baseline),
* :class:`MoPACCPolicy` — MC-side probabilistic counting (Section 5),
* :class:`MoPACDPolicy` — in-DRAM probabilistic counting with SRQ,
  tardiness bound, drain-on-REF, optional NUP and multi-chip (Sections 6/8),
* :class:`MINTPolicy`, :class:`PrIDEPolicy` — low-cost tracker baselines
  (Section 9.2),
* :class:`TRRPolicy` — the broken DDR4-era strawman (Section 2.3),
* :class:`QPRACPolicy` — QPRAC-style proactive priority-queue PRAC
  service (Section 9.1 related work).
"""

from .base import (EpisodeDecision, MitigationEvent, MitigationPolicy,
                   PolicyStats)
from .cnc_prac import CnCPRACPolicy
from .mint import MINTPolicy
from .moat import MOATPolicy
from .mopac_c import MoPACCPolicy
from .mopac_d import (DEFAULT_SRQ_SIZE, SRQ_DRAIN_PER_ABO, MintSampler,
                      MoPACDPolicy, ParaSampler, SRQEntry)
from .prac import BaselinePolicy, PRACMoatPolicy
from .prac_state import (BLAST_RADIUS, MoatTracker, PRACCounters,
                         RefreshSchedule)
from .practical import PRACticalPolicy
from .pride import PrIDEPolicy
from .qprac import QPRACPolicy, QPRACProactivePolicy
from .registry import MitigationSpec, make_policy
from .registry import get as get_spec
from .registry import names as registered_names
from .registry import specs as registered_specs
from .trr import TRRPolicy

__all__ = [
    "BLAST_RADIUS", "BaselinePolicy", "CnCPRACPolicy", "DEFAULT_SRQ_SIZE",
    "EpisodeDecision",
    "MINTPolicy", "MOATPolicy", "MintSampler", "MitigationEvent",
    "MitigationPolicy", "MitigationSpec",
    "MoatTracker", "MoPACCPolicy", "MoPACDPolicy", "PRACCounters", "ParaSampler",
    "PRACMoatPolicy", "PRACticalPolicy", "PolicyStats", "PrIDEPolicy",
    "QPRACPolicy", "QPRACProactivePolicy",
    "RefreshSchedule",
    "SRQEntry", "SRQ_DRAIN_PER_ABO", "TRRPolicy",
    "get_spec", "make_policy", "registered_names", "registered_specs",
]
