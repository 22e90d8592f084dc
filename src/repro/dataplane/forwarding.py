"""Forwarding tables and the effective path under fast reaction.

Forwarding tables map each video stream to (next hop region, link type);
they are per-direction, which is what makes XRON's forwarding asymmetric
(§4.2): the controller computes the two directions of a session as two
independent streams over direction-specific link states.

`effective_path_series` evaluates what a stream actually experienced over
a time window: at instants where the gateway at some on-path region has
flagged its outgoing link degraded, traffic follows that region's
pre-computed premium backup plan instead of the rest of the normal path
(§4.3).  The first degraded hop *with a backup plan* wins — upstream
gateways switch before downstream ones ever see the traffic, but a
degraded hop that has no plan keeps forwarding normally, so downstream
regions still receive the traffic and may react themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.controlplane.model import OverlayPath, PathHop
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType

_TEL = _telemetry()


#: What one install carries for a region: stream -> (next hop, link
#: type), and stream -> backup relay sequence to the destination.
Entries = Dict[int, Tuple[str, LinkType]]
Plans = Dict[int, Tuple[str, ...]]


class ForwardingTable:
    """What a region's last accepted install put in place.

    The controller pushes one update per region per epoch, so a region
    holds one of these and all its gateways forward from it
    (`RegionCluster.table`; a gateway built outside a cluster makes its
    own).  It is also the one place installs are ordered: a versioned
    install older than the one held is refused and changes nothing —
    a late push never rolls a region back.
    """

    def __init__(self):
        self.rows: Entries = {}
        self.plans: Plans = {}
        #: Version of the last accepted versioned install (None until
        #: one: a bootstrap or hand-seeded table).
        self.installed_version: Optional[int] = None
        #: Simulated time of the last accepted install that gave one
        #: (the base degraded-mode staleness is measured from).
        self.installed_at: Optional[float] = None

    def install(self, entries: Entries, plans: Plans,
                version: Optional[int] = None,
                now: Optional[float] = None) -> bool:
        """Replace rows and plans with a controller update (the table
        keeps its own copy); False when the guard refused it."""
        if (version is not None and self.installed_version is not None
                and version < self.installed_version):
            return False
        self.rows = dict(entries)
        self.plans = dict(plans)
        if version is not None:
            self.installed_version = version
        if now is not None:
            self.installed_at = now
        if _TEL.enabled:
            _TEL.counter("forwarding.installs").inc()
            _TEL.counter("forwarding.entries_installed").inc(len(self.rows))
        return True


#: (lat array, loss array) for a hop over the evaluation grid.
HopSeriesFn = Callable[[PathHop], Tuple[np.ndarray, np.ndarray]]
#: Boolean 'outgoing link degraded' array for a hop over the grid.
ReactionFn = Callable[[PathHop], np.ndarray]
#: Backup relay sequence (excluding the reacting region) for a region.
PlanFn = Callable[[str], Optional[Tuple[str, ...]]]


@dataclass
class EffectiveSeries:
    """What a stream experienced over a window."""

    times: np.ndarray
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    #: True where the stream rode a backup (premium) path.
    on_backup: np.ndarray

    @property
    def backup_fraction(self) -> float:
        return float(np.mean(self.on_backup)) if self.on_backup.size else 0.0


def backup_path(path: OverlayPath, region: str,
                plan_for_region: PlanFn) -> Optional[OverlayPath]:
    """The premium path traffic of `path` follows once the gateway at
    on-path `region` reacts: its pre-computed plan, else straight to the
    destination; None when there is nowhere to go."""
    relays = plan_for_region(region)
    if relays is None:
        relays = (path.dst,) if region != path.dst else ()
    if not relays:
        return None
    return OverlayPath.via((region,) + tuple(relays), LinkType.PREMIUM)


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
