"""Declarative fault specifications and schedules.

A `FaultSpec` names one timed fault — what breaks, where, when, and how
hard.  A `FaultSchedule` is an ordered list of specs that the event
simulator consumes; the schedule itself is pure data (validated,
JSON-round-trippable, hashable content) so the same schedule file can
drive a CI chaos job, an experiment sweep, and a regression test and
produce byte-identical runs for a fixed simulation seed.

The fault taxonomy mirrors the failure modes the paper's data plane is
designed to survive (§4.3, §6.3) plus the provisioning pathologies of
§2.3:

======================  ==================================================
kind                    effect while active
======================  ==================================================
``gateway_crash``       `count` gateways of `region` crash at `start_s`
                        (lowest ids first — the stable representatives);
                        fresh replacements start at the window end when
                        `restart` is true.
``probe_blackout``      active probing yields nothing for the matching
                        links: estimators freeze and no NIB reports are
                        produced (`region` source; optional `dst`,
                        `link_type` narrow it to one link).
``report_drop``         monitoring reports matching the target are
                        dropped before reaching the NIB with
                        `probability`.
``report_staleness``    matching reports reach the NIB with their
                        timestamp shifted `staleness_s` into the past —
                        the NIB sees only aging data.
``install_delay``       forwarding-table/plan installs to `region` are
                        applied `delay_s` late (a newer install wins if
                        it lands first).
``install_partial``     only the first `keep_fraction` of a controller
                        install's entries (by stream id) reach `region`.
``platform_load``       container provisioning in `region` runs under a
                        shared-platform load factor of `load` (§2.3's
                        provisioning storm).
``controller_outage``   control epochs inside the window are skipped;
                        the data plane serves on stale tables with only
                        local fast reaction (generalizes the legacy
                        ``controller_outage`` tuple).
``control_partition``   the named `regions` set cannot exchange probe
                        reports or table installs with the global
                        controller: its NIB view of the set ages and its
                        installs stop at the partition edge.  With
                        regional sub-controllers armed
                        (`repro.controlplane.regional`) a degraded-mode
                        controller keeps intra-partition path control
                        running until heal.
``membership_churn``    soft-state membership refreshes from `region`
                        are suppressed with `probability`
                        (`repro.controlplane.membership`): TTL expiry
                        demotes the region's gateways out of global
                        path control even though they are alive.  A
                        no-op when membership is disarmed.
======================  ==================================================
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.underlay.linkstate import LinkType


class FaultKind(str, Enum):
    """The fault taxonomy (see module docstring)."""

    GATEWAY_CRASH = "gateway_crash"
    PROBE_BLACKOUT = "probe_blackout"
    REPORT_DROP = "report_drop"
    REPORT_STALENESS = "report_staleness"
    INSTALL_DELAY = "install_delay"
    INSTALL_PARTIAL = "install_partial"
    PLATFORM_LOAD = "platform_load"
    CONTROLLER_OUTAGE = "controller_outage"
    CONTROL_PARTITION = "control_partition"
    MEMBERSHIP_CHURN = "membership_churn"


#: Kinds whose target is a region (``region=None`` means every region).
_REGION_SCOPED = frozenset({
    FaultKind.GATEWAY_CRASH, FaultKind.PROBE_BLACKOUT,
    FaultKind.REPORT_DROP, FaultKind.REPORT_STALENESS,
    FaultKind.INSTALL_DELAY, FaultKind.INSTALL_PARTIAL,
    FaultKind.PLATFORM_LOAD, FaultKind.MEMBERSHIP_CHURN,
})


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault.  Fields beyond (kind, start, duration) are
    kind-specific; irrelevant ones keep their defaults (validated)."""

    kind: FaultKind
    start_s: float
    duration_s: float = math.inf
    #: Target region (source region for link-scoped kinds); None = all.
    region: Optional[str] = None
    #: Narrow link-scoped kinds to one destination region.
    dst: Optional[str] = None
    #: Narrow link-scoped kinds to one link tier.
    link_type: Optional[LinkType] = None
    #: gateway_crash: how many gateways fail.
    count: int = 1
    #: gateway_crash: whether replacements start at the window end.
    restart: bool = True
    #: report_drop: per-report drop probability.
    probability: float = 1.0
    #: report_staleness: how far timestamps are shifted into the past.
    staleness_s: float = 0.0
    #: install_delay: how late the install lands.
    delay_s: float = 0.0
    #: install_partial: fraction of entries that survive the install.
    keep_fraction: float = 1.0
    #: platform_load: shared-procedure slowdown factor (>= 1).
    load: float = 1.0
    #: control_partition: the region set severed from the global
    #: controller (stored sorted, so equal sets compare equal).
    regions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(sorted(self.regions)))
        if not math.isfinite(self.start_s):
            raise ValueError(f"start_s must be finite, got {self.start_s}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}")
        if self.kind is FaultKind.GATEWAY_CRASH and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.kind is FaultKind.REPORT_DROP and not (
                0.0 < self.probability <= 1.0):
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}")
        if self.kind is FaultKind.REPORT_STALENESS and self.staleness_s <= 0:
            raise ValueError(
                f"staleness_s must be positive, got {self.staleness_s}")
        if self.kind is FaultKind.INSTALL_DELAY and self.delay_s <= 0:
            raise ValueError(
                f"delay_s must be positive, got {self.delay_s}")
        if self.kind is FaultKind.INSTALL_PARTIAL and not (
                0.0 <= self.keep_fraction < 1.0):
            raise ValueError(
                f"keep_fraction must be in [0, 1), got {self.keep_fraction}")
        if self.kind is FaultKind.PLATFORM_LOAD and self.load <= 1.0:
            raise ValueError(f"load must be > 1, got {self.load}")
        if (self.kind is FaultKind.CONTROLLER_OUTAGE
                and not math.isfinite(self.duration_s)):
            raise ValueError("controller outages need a finite duration")
        if self.kind is FaultKind.CONTROL_PARTITION:
            if not math.isfinite(self.duration_s):
                raise ValueError("control partitions need a finite duration")
            if not self.regions:
                raise ValueError(
                    "control partitions need a non-empty region set")
            if len(set(self.regions)) != len(self.regions):
                raise ValueError(
                    f"partition region set repeats a region: {self.regions}")
        elif self.regions:
            raise ValueError(
                f"regions= is only meaningful for control_partition, "
                f"got it on {self.kind.value}")
        if self.kind is FaultKind.MEMBERSHIP_CHURN and not (
                0.0 < self.probability <= 1.0):
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}")

    # -------------------------------------------------------------- queries
    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        """Whether the fault window covers instant `now` ([start, end))."""
        return self.start_s <= now < self.end_s

    def matches_region(self, region: str) -> bool:
        return self.region is None or self.region == region

    # ------------------------------------------------------------------ json
    def to_json(self) -> Dict[str, object]:
        doc = asdict(self)
        doc["kind"] = self.kind.value
        # Lists, not tuples: a doc that round-tripped through a JSON
        # file must compare equal to one built in memory (envelope
        # schedule checks rely on it).
        doc["regions"] = list(self.regions)
        if self.link_type is not None:
            doc["link_type"] = self.link_type.value
        if math.isinf(self.duration_s):
            doc["duration_s"] = None
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "FaultSpec":
        data = dict(doc)
        if data.get("duration_s") is None:
            data["duration_s"] = math.inf
        if data.get("link_type") is not None:
            data["link_type"] = LinkType(data["link_type"])
        data["kind"] = FaultKind(data["kind"])
        return cls(**data)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of timed faults.

    Specs are kept sorted by (start, kind, region) so iteration order —
    and hence injection order for same-instant faults — never depends on
    construction order.  An empty schedule is falsy and the simulator
    treats it exactly like "no fault subsystem at all": zero extra RNG
    draws, zero extra events, byte-identical output.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.specs,
            key=lambda s: (s.start_s, s.kind.value, s.region or "")))
        object.__setattr__(self, "specs", ordered)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        return cls(())

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultSchedule":
        return cls(tuple(specs))

    # -------------------------------------------------------------- queries
    def __bool__(self) -> bool:
        return bool(self.specs)

    def by_kind(self, kind: FaultKind) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind is kind]

    # ------------------------------------------------------------------ json
    def to_json(self) -> List[Dict[str, object]]:
        return [spec.to_json() for spec in self.specs]

    @classmethod
    def from_json(cls, docs: Iterable[Dict[str, object]]) -> "FaultSchedule":
        """Parse a schedule, dropping duplicated specs with a warning.

        Hand-edited schedule files (and naive concatenation of two of
        them) easily repeat an entry; injecting the same fault twice at
        the same instant would double its counters and, for crashes,
        kill twice the gateways.  Exact duplicates are collapsed to one
        occurrence and reported, instead of being injected silently.
        """
        specs: List[FaultSpec] = []
        seen = set()
        dropped: List[FaultSpec] = []
        for doc in docs:
            spec = FaultSpec.from_json(doc)
            if spec in seen:
                dropped.append(spec)
                continue
            seen.add(spec)
            specs.append(spec)
        if dropped:
            detail = ", ".join(f"{s.kind.value}@{s.start_s:g}s"
                               for s in dropped)
            warnings.warn(
                f"fault schedule contains {len(dropped)} duplicate "
                f"spec(s), keeping one occurrence of each: {detail}",
                stacklevel=2)
        return cls(tuple(specs))

# --------------------------------------------------------- convenience API
def gateway_crash(start_s: float, duration_s: float,
                  region: str) -> FaultSpec:
    """One gateway of `region` crashes; its replacement starts at the
    end (a wider crash is a `replace` of ``count``)."""
    return FaultSpec(FaultKind.GATEWAY_CRASH, start_s, duration_s,
                     region=region)


def probe_blackout(start_s: float, duration_s: float,
                   region: Optional[str] = None) -> FaultSpec:
    """Active probing blind spot for a region (one directed link is a
    `replace` of ``dst`` and ``link_type``)."""
    return FaultSpec(FaultKind.PROBE_BLACKOUT, start_s, duration_s,
                     region=region)


def report_drop(start_s: float, duration_s: float,
                region: Optional[str] = None) -> FaultSpec:
    """Monitoring reports are lost on the way to the NIB."""
    return FaultSpec(FaultKind.REPORT_DROP, start_s, duration_s,
                     region=region)


def report_staleness(start_s: float, duration_s: float, staleness_s: float,
                     region: Optional[str] = None) -> FaultSpec:
    """Reports arrive timestamped `staleness_s` in the past."""
    return FaultSpec(FaultKind.REPORT_STALENESS, start_s, duration_s,
                     region=region, staleness_s=staleness_s)


def install_delay(start_s: float, duration_s: float, delay_s: float,
                  region: Optional[str] = None) -> FaultSpec:
    """Controller installs land `delay_s` late in the matching regions."""
    return FaultSpec(FaultKind.INSTALL_DELAY, start_s, duration_s,
                     region=region, delay_s=delay_s)


def install_partial(start_s: float, duration_s: float, keep_fraction: float,
                    region: Optional[str] = None) -> FaultSpec:
    """Only part of each controller install reaches the matching regions."""
    return FaultSpec(FaultKind.INSTALL_PARTIAL, start_s, duration_s,
                     region=region, keep_fraction=keep_fraction)


def platform_load(start_s: float, duration_s: float, load: float,
                  region: Optional[str] = None) -> FaultSpec:
    """A §2.3 provisioning storm: shared procedures slow by `load`."""
    return FaultSpec(FaultKind.PLATFORM_LOAD, start_s, duration_s,
                     region=region, load=load)


def controller_outage(start_s: float, end_s: float) -> FaultSpec:
    """The controller is unreachable over [start_s, end_s)."""
    if end_s <= start_s:
        raise ValueError(f"outage window [{start_s}, {end_s}) is empty")
    return FaultSpec(FaultKind.CONTROLLER_OUTAGE, start_s,
                     end_s - start_s)


def control_partition(start_s: float, duration_s: float,
                      regions: Iterable[str]) -> FaultSpec:
    """`regions` cannot reach the global controller during the window."""
    return FaultSpec(FaultKind.CONTROL_PARTITION, start_s, duration_s,
                     regions=tuple(regions))


def membership_churn(start_s: float, duration_s: float,
                     region: Optional[str] = None) -> FaultSpec:
    """Membership liveness refreshes from `region` are suppressed."""
    return FaultSpec(FaultKind.MEMBERSHIP_CHURN, start_s, duration_s,
                     region=region)


__all__ = [
    "FaultKind", "FaultSpec", "FaultSchedule",
    "gateway_crash", "probe_blackout", "report_drop", "report_staleness",
    "install_delay", "install_partial", "platform_load",
    "controller_outage", "control_partition", "membership_churn",
]
