"""Elastic container capacity: the cloud-native substrate XRON scales on.

Models the part of Kubernetes/cloud behaviour the paper depends on (§2.3):
containers are cheap to run but slow to *start* (orchestration, image pull,
IP allocation, readiness checks add up to minutes), which is why reactive
auto-scaling under-provisions during demand spikes and XRON scales
proactively from a demand prediction.
"""

from repro.elastic.containers import ContainerPool, ScalingAction
from repro.elastic.autoscaler import (Autoscaler, FixedAllocation,
                                      OptimalAllocation, ProactiveAutoscaler,
                                      ReactiveAutoscaler,
                                      UnderProvisioningStats,
                                      evaluate_autoscaler)

__all__ = [
    "ContainerPool",
    "ScalingAction",
    "Autoscaler",
    "ReactiveAutoscaler",
    "ProactiveAutoscaler",
    "FixedAllocation",
    "OptimalAllocation",
    "UnderProvisioningStats",
    "evaluate_autoscaler",
]
