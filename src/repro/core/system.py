"""`XRONSystem`: the one door to a deployment.

Builds the synthetic underlay and the DingTalk-like demand model from a
single seed, and hands out either engine over that one world with the
same `sim_config` / `control_config`: `simulator(variant)` is the grid
engine behind the paper's figures, `event_engine(variant, ...)` the
discrete-event deployment (its extensions — `faults=`, `resilience=`,
`membership=`, `regional=`, `slo=` — go in as keyword arguments).

    >>> from repro.core import XRONSystem, xron
    >>> system = XRONSystem(seed=7)
    >>> result = system.run(variant=xron(), start_hour=8.0, hours=1.0)
    >>> result.qoe_summary().stall_ratio  # doctest: +SKIP
    >>> events = system.event_engine().run(2 * 3600.0, 60.0)  # doctest: +SKIP
"""

from __future__ import annotations

from typing import List, Optional

from repro.controlplane.model import ControlConfig
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.core.simulator import EpochSimulator, SimulationResult
from repro.core.variants import VariantSpec, xron
from repro.traffic.config import TrafficConfig
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import Region, default_regions
from repro.underlay.topology import Underlay, build_underlay


class XRONSystem:
    """Underlay + traffic + control + data plane, wired together."""

    def __init__(self, regions: Optional[List[Region]] = None, seed: int = 0,
                 underlay_config: Optional[UnderlayConfig] = None,
                 traffic_config: Optional[TrafficConfig] = None,
                 sim_config: Optional[SimulationConfig] = None,
                 control_config: Optional[ControlConfig] = None):
        self.regions = regions if regions is not None else default_regions()
        self.seed = int(seed)
        self.underlay: Underlay = build_underlay(self.regions,
                                                 underlay_config, seed)
        self.demand = DemandModel(self.regions, traffic_config, seed)
        self.sim_config = sim_config
        self.control_config = control_config

    def simulator(self, variant: Optional[VariantSpec] = None
                  ) -> EpochSimulator:
        """An `EpochSimulator` for `variant` (default: full XRON)."""
        return EpochSimulator(self.underlay, self.demand,
                              variant if variant is not None else xron(),
                              self.sim_config, self.control_config)

    def event_engine(self, variant: Optional[VariantSpec] = None,
                     **engine_kwargs) -> EventDrivenXRON:
        """An `EventDrivenXRON` over the same world and configs;
        `engine_kwargs` are its own keywords (tracked pairs, intervals,
        the extensions' configs)."""
        return EventDrivenXRON(self.underlay, self.demand, variant,
                               self.sim_config, self.control_config,
                               **engine_kwargs)

    def run(self, variant: Optional[VariantSpec] = None,
            start_hour: float = 0.0, hours: float = 24.0
            ) -> SimulationResult:
        """Simulate `hours` of operation starting at `start_hour` (UTC)."""
        if hours <= 0:
            raise ValueError(f"hours must be positive, got {hours}")
        sim = self.simulator(variant)
        return sim.run(start_hour * 3600.0, hours * 3600.0)
