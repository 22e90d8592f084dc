"""XRON data plane: gateways, monitoring, forwarding, fast reaction.

Implements §4 of the paper:

* scalable link-state monitoring — active probing (400 ms bursts of
  fifteen 1.5 KB pseudo packets) combined with passive tracking of data
  packets, made scalable by group-based probing with R representatives
  per region pair (§4.1);
* asymmetric forwarding — the two directions of a stream may ride
  different paths and link types (§4.2);
* fast distributed reaction — gateways detect degradations locally and
  switch to pre-computed premium backup paths within seconds, without
  involving the controller (§4.3).

Two execution styles are provided: event-driven objects (`Gateway`,
`RegionCluster`, their `EstimatorBank`s) for the discrete-event
simulator, and vectorised series functions for the grid engine behind
the day-scale experiments: `burst_series` and `reaction_active_series`
over a block of hops, `effective_path_series` over every pair at once.
Both draw every monitoring measurement through `burst_draws`.
"""

from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.probing import BurstNoise, burst_draws, burst_series
from repro.dataplane.estimator import (EstimatorBank, LinkStateEstimator,
                                       reaction_active_series)
from repro.dataplane.passive import PassiveTracker
from repro.dataplane.grouping import ProbingGroupManager, probing_cost
from repro.dataplane.forwarding import (ForwardingTable,
                                        effective_path_series)
from repro.dataplane.gateway import Gateway
from repro.dataplane.cluster import RegionCluster

__all__ = [
    "MonitoringConfig",
    "ReactionConfig",
    "BurstNoise",
    "burst_draws",
    "burst_series",
    "EstimatorBank",
    "LinkStateEstimator",
    "reaction_active_series",
    "PassiveTracker",
    "ProbingGroupManager",
    "probing_cost",
    "ForwardingTable",
    "effective_path_series",
    "Gateway",
    "RegionCluster",
]
