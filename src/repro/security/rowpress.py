"""Row-Press damage model for MoPAC (Appendix A, Table 14).

Row-Press [Luo+, ISCA'23] amplifies read disturbance when a row stays open:
keeping a row open for 180 ns deals about 1.5x the damage of one
fast-cycled activation. The MoPAC extension bounds row-open time to 180 ns
(MoPAC-C closes the row; MoPAC-D charges SCtr by ceil(tON / 180 ns)) and
derates every activation to 1.5 damage units, which shrinks the usable
activation budget by 1.5x:

    A_rp  = floor(ATH / 1.5)            (MoPAC-C)
    A'_rp = floor((ATH - TTH) / 1.5)    (MoPAC-D; tardiness slack derates too)

and the C-search proceeds as usual (``rowpress=True`` on
:func:`repro.security.csearch.mopac_c_params` and ``mopac_d_params``).
Both conventions reproduce the published Table 14 values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moat_model import moat_ath

#: Relative damage of one 180 ns-open activation vs one fast activation.
ROWPRESS_DAMAGE = 1.5

#: Row-open cap enforced by the Row-Press-aware designs (ns).
ROWPRESS_TON_CAP_NS = 180.0


def rowpress_budget(trh: int, damage: float = ROWPRESS_DAMAGE) -> int:
    """Activation budget after derating each ACT to ``damage`` units."""
    return int(moat_ath(trh) / damage)


@dataclass(frozen=True)
class RowPressDamage:
    """Damage accounting for one row-open episode."""

    open_time_ns: float

    @property
    def sctr_increment(self) -> int:
        """MoPAC-D: SCtr += ceil(tON / 180 ns) (Appendix A)."""
        return max(1, math.ceil(self.open_time_ns / ROWPRESS_TON_CAP_NS))
