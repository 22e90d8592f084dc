"""Capacity control: deciding gateway counts per region (§5.3, step 2).

Step 2 re-runs Algorithm 1 *without* the gateway capacity constraints,
giving the gateway demand `R_next` the next epoch would like.  The paper's
update rule per region:

* if `R_next` needs more gateways than are available, add the difference;
* if both the capacitated result `R_cur` and `R_next` used fewer gateways
  than are available, remove the surplus over max(R_cur, R_next).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.controlplane import model
from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import (EpochSolveContext,
                                            PathControlResult, path_control)
from repro.traffic.streams import StreamTable
from repro.underlay.pricing import PricingModel
from repro.underlay.snapshot import LinkStateSnapshot


@dataclass
class CapacityDecision:
    """Scaling decision for all regions for the next epoch."""

    #: Gateways to add / remove per region.
    add: Dict[str, int]
    remove: Dict[str, int]
    #: Resulting target per region.
    target: Dict[str, int]

    def total_target(self) -> int:
        return sum(self.target.values())


def capacity_control(streams: StreamTable, codes: List[str],
                     snap: LinkStateSnapshot, config: ControlConfig,
                     available: Dict[str, int],
                     r_cur: PathControlResult,
                     fees: Optional[PricingModel] = None,
                     context: Optional[EpochSolveContext] = None
                     ) -> CapacityDecision:
    """Compute the per-region gateway adjustments for the next epoch.

    `available` is the current per-region container count and `r_cur` the
    step-1 result computed against it; `streams` should carry the
    *predicted* next-epoch demand and `snap` the link state step 1 used.
    Pass step 1's `EpochSolveContext` too, to share the edge-weight
    build, the epoch's route table and (when every region has a
    gateway) the entire first DP with it.  The uncapacitated run is
    read only for its gateway demand, off its columns.
    """
    r_next = path_control(streams, codes, snap, config, gateways=None,
                          fees=fees, context=context)
    used = r_next.used_gateways
    add: Dict[str, int] = {}
    remove: Dict[str, int] = {}
    target: Dict[str, int] = {}
    for code in codes:
        avail = int(available.get(code, 0))
        used_next = min(used.get(code, 0), model.MAX_CONTAINERS)
        used_cur = r_cur.used_gateways.get(code, 0)
        if used_next > avail:
            add[code] = used_next - avail
            remove[code] = 0
            target[code] = used_next
        elif used_cur < avail and used_next < avail:
            keep = max(used_cur, used_next, 1)  # never scale a region to 0
            remove[code] = avail - keep
            add[code] = 0
            target[code] = keep
        else:
            add[code] = 0
            remove[code] = 0
            target[code] = avail
    return CapacityDecision(add, remove, target)
