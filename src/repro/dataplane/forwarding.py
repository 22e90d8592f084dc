"""Forwarding tables and the effective path under fast reaction.

Forwarding tables map each video stream to (next hop region, link type);
they are per-direction, which is what makes XRON's forwarding asymmetric
(§4.2): the controller computes the two directions of a session as two
independent streams over direction-specific link states.

`effective_path_series` evaluates what streams actually experienced over
a time window, all of them in one array pass: at instants where the
gateway at some on-path region has flagged its outgoing link degraded,
traffic follows that region's pre-computed premium backup plan instead
of the rest of the normal path (§4.3).  The first degraded hop *with a
backup plan* wins — upstream gateways switch before downstream ones
ever see the traffic, but a degraded hop that has no plan keeps
forwarding normally, so downstream regions still receive the traffic
and may react themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.model import OverlayPath, PathHop
from repro.obs import telemetry as _telemetry
from repro.underlay.linkstate import LinkType

_TEL = _telemetry()


#: What one install carries for a region: stream -> (next hop, link
#: type), and stream -> backup relay sequence to the destination.
Entries = Dict[int, Tuple[str, LinkType]]
Plans = Dict[int, Tuple[str, ...]]


@dataclass(frozen=True)
class ForwardDecision:
    """Where a stream is sent right now."""

    next_hop: str
    link_type: LinkType
    via_backup: bool
    #: True when a stale table demoted this entry to the premium floor
    #: (`repro.resilience` degraded-mode forwarding).
    degraded_mode: bool = False
    #: The position of the link it rides among its region's links (set
    #: by `ForwardingTable`'s compiled rows); not part of its identity.
    link: Optional[int] = field(default=None, compare=False)


#: A compiled table row: the stream's normal decision (whose `link` is
#: the one monitoring may flag degraded), its backup (the plan's first
#: relay, else the normal next hop, over premium) and its degraded-mode
#: demotion (the normal next hop over premium).
Route = Tuple[ForwardDecision, ForwardDecision, ForwardDecision]


class ForwardingTable:
    """What a region's last accepted install put in place.

    The controller pushes one update per region per epoch, so a region
    holds one of these and all its gateways forward from it
    (`RegionCluster.table`).  It is also the one place installs are
    ordered: a versioned install older than the one held is refused and
    changes nothing — a late push never rolls a region back.

    An install compiles every row into a `Route` of shared decisions
    that carry their link's position in `links` (the region's adjacent
    links -> position in its gateways' monitoring state), so forwarding
    a packet indexes a flag and allocates nothing.
    """

    def __init__(self, links: Dict[Tuple[str, LinkType], int]):
        #: The region's decisions, one per (next hop, link type) of its
        #: links, and the premium backups and demotions per next hop.
        self._normal = {key: ForwardDecision(*key, False, link=k)
                        for key, k in links.items()}
        self._backup = {hop: ForwardDecision(hop, lt, True, link=k)
                        for (hop, lt), k in links.items()
                        if lt is LinkType.PREMIUM}
        self._demoted = {hop: ForwardDecision(hop, lt, False, True, link=k)
                         for (hop, lt), k in links.items()
                         if lt is LinkType.PREMIUM}
        self.rows: Entries = {}
        self.plans: Plans = {}
        #: stream -> its compiled `Route`.
        self.routes: Dict[int, Route] = {}
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
        routes = {sid: self._route(plans.get(sid), *row)
                  for sid, row in entries.items()}
        self.rows = dict(entries)
        self.plans = dict(plans)
        self.routes = routes
        if version is not None:
            self.installed_version = version
        if now is not None:
            self.installed_at = now
        if _TEL.enabled:
            _TEL.counter("forwarding.installs").inc()
            _TEL.counter("forwarding.entries_installed").inc(len(self.rows))
        return True

    def _route(self, relays: Optional[Tuple[str, ...]], next_hop: str,
               link_type: LinkType) -> Route:
        """Compile one row and its plan's relays (a KeyError for a hop
        that is no link of the region)."""
        return (self._normal[(next_hop, link_type)],
                self._backup[relays[0] if relays else next_hop],
                self._demoted[next_hop])


#: (lat array, loss array) for a hop over the evaluation grid.
HopSeriesFn = Callable[[PathHop], Tuple[np.ndarray, np.ndarray]]
#: Boolean 'outgoing link degraded' array for a hop over the grid.
ReactionFn = Callable[[PathHop], np.ndarray]
#: Backup relay sequence (excluding the reacting region) for a region.
PlanFn = Callable[[str], Optional[Tuple[str, ...]]]


@dataclass
class EffectiveSeries:
    """What streams experienced over a window, one row per stream."""

    times: np.ndarray
    latency_ms: np.ndarray
    loss_rate: np.ndarray
    #: True where the stream rode a backup (premium) path.
    on_backup: np.ndarray

    @property
    def backup_fraction(self) -> np.ndarray:
        """Per stream, the share of instants it rode a backup path."""
        return self.on_backup.mean(axis=-1)


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


def path_detours(path: OverlayPath, reaction_active: ReactionFn,
                 plan_for_region: PlanFn) -> List[Optional[OverlayPath]]:
    """Per hop of `path`, the detour `effective_path_series` may switch
    it to: where the hop is flagged degraded at some instant, the
    `backup_path` of its source region, else None."""
    return [backup_path(path, hop[0], plan_for_region)
            if reaction_active(hop).any() else None for hop in path.hops]


def effective_path_series(paths: Sequence[OverlayPath], times: np.ndarray,
                          hop_series: HopSeriesFn,
                          reaction_active: ReactionFn,
                          detours: Sequence[Sequence[Optional[OverlayPath]]]
                          ) -> EffectiveSeries:
    """Evaluate every stream's end-to-end latency/loss over `times`.

    `detours[p][k]` is the premium path stream p follows once the source
    region of its hop k reacts (`path_detours`), None where that hop
    never switches (no reaction, never degraded, nowhere to go).
    Scenario k means "hop k is the first degraded hop with a detour":
    traffic follows hops[:k] then that detour.  Degraded hops without
    one keep forwarding on the normal path, so downstream scenarios
    still fire.  Scenario 'none' is the normal path.

    One pass covers every stream: hops are stacked into (max hops,
    streams, instants) arrays padded with latency 0, loss 0 and no flag,
    and sums and products run in hop order, so with x + 0.0 == x and
    x * 1.0 == x each row is bit for bit its path evaluated alone.
    """
    times = np.asarray(times, dtype=float)
    shape = (len(paths), times.size)
    depth = max((len(path.hops) for path in paths), default=0)
    stack = (depth,) + shape
    lat, loss, detour_lat = (np.zeros(stack) for __ in range(3))
    active, detour_survive = np.zeros(stack, dtype=bool), np.ones(stack)
    for p, (path, row) in enumerate(zip(paths, detours)):
        for k, hop in enumerate(path.hops):
            lat[k, p], loss[k, p] = hop_series(hop)
            if row[k] is None:
                continue
            active[k, p] = reaction_active(hop)
            for bhop in row[k].hops:
                b_lat, b_loss = hop_series(bhop)
                detour_lat[k, p] += b_lat
                detour_survive[k, p] *= 1.0 - b_loss

    # prefix_*[k] covers hops[:k]; the last entry is the normal path.
    prefix_lat, prefix_survive = [np.zeros(shape)], [np.ones(shape)]
    for k in range(depth):
        prefix_lat.append(prefix_lat[-1] + lat[k])
        prefix_survive.append(prefix_survive[-1] * (1.0 - loss[k]))
    latency, survive = prefix_lat[-1], prefix_survive[-1]
    taken = np.zeros(shape, dtype=bool)
    for k in range(depth):
        # Scenario k fires where hop k is degraded and no earlier hop
        # has already switched the traffic away (`taken`).  A degraded
        # earlier hop WITHOUT a detour must not mask us: its traffic
        # still flows through and reaches this region, whose gateway
        # reacts on its own plan.
        fires = active[k] & ~taken
        latency = np.where(fires, prefix_lat[k] + detour_lat[k], latency)
        survive = np.where(fires, prefix_survive[k] * detour_survive[k],
                           survive)
        taken |= fires
    return EffectiveSeries(times, latency, 1.0 - survive, taken)
