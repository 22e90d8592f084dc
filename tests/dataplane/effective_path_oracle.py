"""The single-path fast-reaction evaluator: the per-pair formulation the
grid engine's columnar `effective_path_series` replaced, kept as the
`==` oracle of every row of it (`test_forwarding.py`).
"""

from typing import List

import numpy as np

from repro.controlplane.model import OverlayPath
from repro.dataplane.forwarding import (EffectiveSeries, HopSeriesFn, PlanFn,
                                        ReactionFn, backup_path)


def effective_path_series(path: OverlayPath, times: np.ndarray,
                          hop_series: HopSeriesFn,
                          reaction_active: ReactionFn,
                          plan_for_region: PlanFn,
                          enable_reaction: bool = True) -> EffectiveSeries:
    """Evaluate a stream's end-to-end latency/loss over `times`.

    With reaction enabled, scenario k means "hop k is the first degraded
    hop whose region can react": traffic follows hops[:k] then the
    backup plan of hop k's source region (all premium).  Degraded hops
    without a plan keep forwarding on the normal path, so downstream
    scenarios still fire.  Scenario 'none' is the normal path.  With at
    most a few hops per path the scenario set is tiny and everything
    vectorises over the time grid.
    """
    times = np.asarray(times, dtype=float)
    hop_lat: List[np.ndarray] = []
    hop_loss: List[np.ndarray] = []
    for hop in path.hops:
        lat, loss = hop_series(hop)
        hop_lat.append(lat)
        hop_loss.append(loss)

    normal_lat = np.sum(hop_lat, axis=0)
    normal_survive = np.ones_like(normal_lat)
    for loss in hop_loss:
        normal_survive = normal_survive * (1.0 - loss)

    if not enable_reaction:
        zeros = np.zeros(times.size, dtype=bool)
        return EffectiveSeries(times, normal_lat, 1.0 - normal_survive, zeros)

    active = [reaction_active(hop) for hop in path.hops]

    latency = normal_lat.copy()
    survive = normal_survive.copy()
    on_backup = np.zeros(times.size, dtype=bool)
    taken = np.zeros(times.size, dtype=bool)

    for k, hop in enumerate(path.hops):
        # Scenario k fires where hop k is degraded and no earlier hop
        # has already switched the traffic away (`taken`).  A degraded
        # earlier hop WITHOUT a backup plan must not mask us: its
        # traffic still flows through and reaches this region, whose
        # gateway reacts on its own plan.
        fires = active[k] & ~taken
        if not np.any(fires):
            continue
        backup = backup_path(path, hop[0], plan_for_region)
        if backup is None:
            continue
        b_lat = np.zeros(times.size)
        b_survive = np.ones(times.size)
        for bhop in backup.hops:
            lat, loss = hop_series(bhop)
            b_lat = b_lat + lat
            b_survive = b_survive * (1.0 - loss)
        prefix_lat = np.sum(hop_lat[:k], axis=0) if k else np.zeros(times.size)
        prefix_survive = np.ones(times.size)
        for loss in hop_loss[:k]:
            prefix_survive = prefix_survive * (1.0 - loss)
        latency = np.where(fires, prefix_lat + b_lat, latency)
        survive = np.where(fires, prefix_survive * b_survive, survive)
        on_backup |= fires
        taken |= fires

    return EffectiveSeries(times, latency, 1.0 - survive, on_backup)
