"""XRON core: the assembled system and its evaluation variants.

`XRONSystem` wires the synthetic underlay, the traffic model, the
controller, the data-plane evaluation, QoE scoring and cost accounting
into one runnable system.  `variants` defines the system versions the
paper compares: XRON, Internet only, Premium only, XRON-Basic (no fast
reaction), XRON-Premium (premium-only overlay), and the symmetric-
forwarding ablation.
"""

from repro.core.config import SimulationConfig
from repro.core.variants import (VariantSpec, xron, internet_only,
                                 premium_only, xron_basic, xron_premium,
                                 xron_symmetric, standard_variants)
from repro.core.simulator import EpochSimulator, SimulationResult
from repro.core.eventsim import EventDrivenXRON, EventSimResult, SessionRecord
from repro.core.system import XRONSystem

__all__ = [
    "SimulationConfig",
    "VariantSpec",
    "xron",
    "internet_only",
    "premium_only",
    "xron_basic",
    "xron_premium",
    "xron_symmetric",
    "standard_variants",
    "EpochSimulator",
    "EventDrivenXRON",
    "EventSimResult",
    "SessionRecord",
    "SimulationResult",
    "XRONSystem",
]
