"""Video-conferencing traffic workload.

Substitutes for DingTalk's production demand (§2.3, Figs. 5, 11): a
deterministic three-peak diurnal model per ordered region pair with weekly
structure, multiplicative noise, five-minute surges, and extreme
peak-to-trough ratios (~145x aggregate, ~247x per pair), plus a
stream/session-level decomposition feeding the controller's SIB.
"""

from repro.traffic.cohorts import CohortWorkload
from repro.traffic.config import TrafficConfig
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import (Stream, StreamTable, StreamWorkload,
                                   VIDEO_PROFILES)

__all__ = [
    "CohortWorkload",
    "TrafficConfig",
    "DemandModel",
    "TrafficMatrix",
    "Stream",
    "StreamTable",
    "StreamWorkload",
    "VIDEO_PROFILES",
]
