"""XRON control plane: NIB/SIB, demand prediction, and global algorithms.

The logically centralised controller (§5): it predicts traffic demand with
a DTFT model (§5.1), models the latency+cost objective and its constraints
(§5.2), computes forwarding paths and gateway counts with the scalable
two-step control algorithm (§5.3, Algorithm 1), and generates the fast
reaction plans the data plane applies locally (§5.4, Algorithm 2).
"""

from repro.controlplane.nib import (LinkReport, NetworkInformationBase,
                                    ReportBatch)
from repro.controlplane.sib import StreamInformationBase
from repro.controlplane.prediction import DTFTPredictor, RollingPredictor
from repro.controlplane.model import ControlConfig, OverlayPath, PathHop
from repro.controlplane.pathcontrol import PathControlResult, path_control
from repro.controlplane.capacity import CapacityDecision, capacity_control
from repro.controlplane.objective import evaluate_objective
from repro.controlplane.reactionplan import ReactionPlan, generate_reaction_plans
from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.membership import MembershipTable, membership
from repro.controlplane.regional import (PartitionCounters,
                                         RegionalController, regional_control)

__all__ = [
    "NetworkInformationBase",
    "LinkReport",
    "ReportBatch",
    "StreamInformationBase",
    "DTFTPredictor",
    "RollingPredictor",
    "ControlConfig",
    "OverlayPath",
    "PathHop",
    "PathControlResult",
    "path_control",
    "CapacityDecision",
    "capacity_control",
    "evaluate_objective",
    "ReactionPlan",
    "generate_reaction_plans",
    "Controller",
    "ControlOutput",
    "MembershipTable",
    "membership",
    "PartitionCounters",
    "RegionalController",
    "regional_control",
]
