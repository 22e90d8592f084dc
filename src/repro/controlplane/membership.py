"""Soft-state gateway membership: TTL'd liveness at the controller.

The global controller's view of "which gateways exist" is, in the
baseline build, the harness's ground truth — a severed or silent region
still looks fully staffed, so path control keeps scheduling streams
through gateways it cannot actually program.  This module gives the
controller an honest, *soft-state* membership view in the style of
NDN/soft-state registries: every probe-report batch that actually
reaches the controller refreshes a per-gateway TTL'd liveness entry,
and entries that miss their TTL expire deterministically.  A region
whose live count drops to zero is demoted out of global path control —
the controller routes around it instead of through it.

Design rules (the byte-identical-when-absent contract):

* The table draws **no randomness** and schedules **no events**: it is
  refreshed when a probe-report batch reaches the controller and swept
  once per control epoch, both in deterministic sorted order.
* `MembershipExtension` is the whole of its engine wiring — a handful
  of the hooks in `repro.core.eventsim.HOOKS`; ``membership=None``
  (the default, as is any false value) arms nothing, so the engine
  never meets the table.
* Liveness is keyed on *arrival at the controller*: a probe blackout, a
  controller outage (modeled restart), or a control partition all
  starve refreshes naturally, with no fault-specific wiring.
* "Never heard from" is not "expired": a region with no entries at all
  (boot, or a controller restore that dropped the soft state) keeps its
  configured capacity until the first refresh round — soft state must
  be rebuildable from the refresh stream alone.

See ``docs/partitions.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters

_TEL = _telemetry()
_CHURN_COUNTERS = HotCounters("fault.refreshes_churned")

#: The liveness window, seconds: an entry not refreshed for this long
#: expires at the next epoch sweep.  Several probe-burst intervals
#: (400 ms), so a healthy gateway refreshes many times per TTL while a
#: severed one expires well inside a single control epoch.
MEMBERSHIP_TTL_S = 3.0


def membership() -> bool:
    """The value that arms the table: ``EventDrivenXRON(membership=
    membership())``, like ``resilience=resilience()``."""
    return True


@dataclass
class MembershipCounters:
    """What the membership table actually did."""

    joins: int = 0          #: gateways that (re)entered the live set
    refreshes: int = 0      #: liveness refreshes applied
    expiries: int = 0       #: entries demoted by TTL expiry
    regions_demoted: int = 0  #: epoch sweeps that left a region empty

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class MembershipTable:
    """TTL'd (region, gateway) liveness entries at the controller."""

    def __init__(self):
        self.counters = MembershipCounters()
        #: (region, gateway_id) -> last refresh instant.  Live and
        #: expired entries are distinguished by comparing against `now`;
        #: expired entries are removed by the epoch sweep but the region
        #: stays *known* (see `_known`).
        self._entries: Dict[Tuple[str, int], float] = {}
        #: Regions ever heard from — "expired" and "never seen" demote
        #: differently (never-seen keeps configured capacity: boot
        #: grace, and a restore rebuilding the soft state from scratch).
        self._known: set = set()

    # -------------------------------------------------------------- refresh
    def refresh(self, region: str, gateway_ids: Sequence[int],
                now: float) -> None:
        """A probe-report batch from `region` reached the controller;
        `gateway_ids` are its gateways, in ascending order."""
        self._known.add(region)
        entries = self._entries
        self.counters.refreshes += len(gateway_ids)
        for gid in gateway_ids:
            key = (region, gid)
            fresh = key not in entries
            entries[key] = now
            if fresh:
                self.counters.joins += 1
                if _TEL.enabled:
                    _TEL.counter("membership.joins").inc()
                    _TEL.event("membership_join", t=now, region=region,
                               gateway=gid)

    # --------------------------------------------------------------- expiry
    def expire(self, now: float) -> List[Tuple[str, int]]:
        """Sweep TTL-expired entries (sorted order); returns the victims."""
        victims = [key for key in sorted(self._entries)
                   if now - self._entries[key] > MEMBERSHIP_TTL_S]
        for key in victims:
            stale_s = now - self._entries[key]
            del self._entries[key]
            self.counters.expiries += 1
            if _TEL.enabled:
                _TEL.counter("membership.expiries").inc()
                _TEL.event("membership_expired", t=now, region=key[0],
                           gateway=key[1], stale_s=round(stale_s, 6))
        return victims

    def reset(self) -> None:
        """Drop all soft state (a modeled controller restart).

        A restarted controller process rebuilds liveness from the
        refresh stream alone: every region returns to never-seen (boot
        grace), so a warm restart cannot demote regions on state it no
        longer holds.  Counters survive — they describe the deployment,
        not the process."""
        self._entries.clear()
        self._known.clear()

    # -------------------------------------------------------------- queries
    @property
    def size(self) -> int:
        """Live entry count (whatever the sweep has not yet removed)."""
        return len(self._entries)

    def alive_count(self, region: str) -> int:
        return sum(1 for (code, __) in self._entries if code == region)

    def known(self, region: str) -> bool:
        return region in self._known

    def clamp(self, ready: Dict[str, int],
              now: Optional[float] = None) -> Dict[str, int]:
        """Cap per-region capacity at the live membership count.

        The controller cannot have heard from more gateways than are
        live in its soft state; a known-but-fully-expired region drops
        to zero capacity (demoted out of path control), while a region
        never heard from keeps its configured count (boot grace).
        """
        clamped: Dict[str, int] = {}
        for code, count in ready.items():
            if not self.known(code):
                clamped[code] = count
                continue
            alive = self.alive_count(code)
            clamped[code] = min(count, alive)
            if alive == 0:
                self.counters.regions_demoted += 1
                if _TEL.enabled:
                    _TEL.counter("membership.regions_demoted").inc()
                    _TEL.event("membership_region_demoted", t=now,
                               region=code, configured=count)
        return clamped


class MembershipExtension:
    """The table on the event engine: refreshed as report batches reach
    the controller, swept and applied before each solve, dropped when
    the controller process is."""

    def __init__(self, engine):
        self.engine = engine
        self.table = MembershipTable()

    def reports_delivered(self, clusters, now: float) -> None:
        """Reports of `clusters`' regions reached the controller: refresh
        each one's soft-state liveness, in order — unless a churn fault
        eats the refresh (one churn query for the instant)."""
        faults = self.engine.faults
        churned = faults.membership_churn(
            [cluster.region for cluster in clusters], now)
        for cluster in clusters:
            spec = churned.get(cluster.region)
            if spec is None:
                self.table.refresh(cluster.region, cluster.gateway_ids, now)
                continue
            faults.counters.refreshes_churned += 1
            if _TEL.enabled:
                _CHURN_COUNTERS.fetch(_TEL.metrics)[0].inc()
                _TEL.event("fault_membership_churn", t=now,
                           region=cluster.region,
                           fault_id=faults.fault_id(spec))

    def controller_restarted(self) -> None:
        # Soft state dies with the process: the replacement rebuilds
        # liveness from the refresh stream (boot grace until then).
        self.table.reset()

    def clamp_ready(self, ready: Dict[str, int],
                    now: float) -> Dict[str, int]:
        """Sweep TTL-expired entries, then cap each region's usable
        capacity at its live count: a region whose refreshes are severed
        (partition, blackout, churn) drops to zero and is routed AROUND
        instead of through."""
        self.table.expire(now)
        return self.table.clamp(ready, now)

    def counters(self) -> Dict[str, Dict[str, int]]:
        return {"membership_counters": self.table.counters.as_dict()}

    def health(self, now: float) -> Dict[str, object]:
        return {"membership_size": self.table.size}


__all__ = ["MEMBERSHIP_TTL_S", "MembershipCounters", "MembershipExtension",
           "MembershipTable", "membership"]
