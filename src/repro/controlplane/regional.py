"""Per-partition degraded-mode sub-controllers.

When a ``control_partition`` fault severs a region set from the global
controller, the baseline behavior is graceful decay: the severed
regions keep serving on their last-installed tables, but every stream
the global controller (re)assigns after the cut is unknown inside the
partition — intra-partition sessions blackhole the moment the service
layer binds them to a stream id the severed tables never learned.

A `RegionalController` is the degraded-mode answer: a small, fully
local control plane spun up *inside* the partition.  It is seeded from
the global controller's last-known NIB state (the link reports for
intra-partition links at the moment of activation), keeps ingesting the
partition's own probe reports, and runs the same two-step control
algorithm over the severed region set only.  Its installs are stamped
with a **regional version epoch** — versions allocated above the last
globally committed version the partition's gateways hold, so regional
tables supersede the stale global rows locally.

Heal-time reconciliation rides the existing two-phase install
versioning (`repro.resilience`):

* On heal, the global installer's proposed-version counter is *fenced*
  to the maximum version the sub-controller ever allocated.  The next
  global install therefore carries a strictly newer version and
  supersedes every regional table everywhere-or-nowhere, through the
  normal validated commit.
* A regional install still in flight when the partition heals (e.g.
  held by an ``install_delay`` fault) carries a version at or below the
  fence, so the gateways' version guard discards it — stale regional
  state can never clobber newer global state.

Stream-id hygiene: the sub-controller's workload allocates stream ids
from a disjoint high band (`RegionalControlConfig.stream_id_base`), so
regional rows can be merged over — and later swept from — a table that
still carries global-band rows for cross-partition streams.

Everything here is deterministic: the sub-controller derives its seed
from the deployment seed and the sorted partition region set, draws
from its own RNG streams, and is activated/healed at control-epoch
boundaries only.  Disabled configs normalize to ``None`` at the
simulator seam (byte-identical when off).  See ``docs/partitions.md``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.controlplane.controller import Controller, ControlOutput
from repro.controlplane.model import ControlConfig
from repro.traffic.matrix import TrafficMatrix
from repro.underlay.pricing import PricingModel

#: Default first stream id of the regional band — far above anything a
#: global workload allocates in a simulated run, so band membership is
#: a single comparison.
REGIONAL_STREAM_BASE = 1_000_000_000


@dataclass(frozen=True)
class RegionalControlConfig:
    """How degraded-mode sub-controllers behave.

    `enabled` is the master switch (disabled normalizes to no subsystem
    at all).  `stream_id_base` is the first stream id of the regional
    band; every sub-controller allocates ids at or above it.
    """

    enabled: bool = False
    stream_id_base: int = REGIONAL_STREAM_BASE

    def __post_init__(self) -> None:
        if self.stream_id_base <= 0:
            raise ValueError(
                f"stream_id_base must be positive, got {self.stream_id_base}")


def regional_control(
        stream_id_base: int = REGIONAL_STREAM_BASE) -> RegionalControlConfig:
    """An armed regional-control config (convenience constructor)."""
    return RegionalControlConfig(enabled=True, stream_id_base=stream_id_base)


@dataclass
class PartitionCounters:
    """What the partition-tolerance machinery actually did."""

    partitions_started: int = 0       #: sub-controllers activated
    partitions_healed: int = 0        #: sub-controllers reconciled away
    regional_epochs: int = 0          #: degraded-mode control epochs run
    regional_installs_committed: int = 0  #: validated intra-partition installs
    regional_installs_rejected: int = 0   #: regional updates failing invariants
    regional_rebinds: int = 0         #: sessions moved onto regional streams
    reconcile_fences: int = 0         #: version fences applied on heal
    reconvergence_epochs: int = 0     #: heal -> first global commit, epochs
    heal_flaps: int = 0               #: sessions flapped regional -> global

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class RegionalController:
    """One partition's local control plane (see module docstring)."""

    def __init__(self, regions: Tuple[str, ...], *,
                 control_config: ControlConfig,
                 pricing: Optional[PricingModel],
                 sib_params: Optional[Dict[str, int]],
                 base_version: int,
                 config: RegionalControlConfig,
                 seed: int,
                 nib_reports: Optional[List[Dict[str, object]]] = None,
                 symmetric_only: bool = False,
                 premium_only: bool = False,
                 internet_only: bool = False):
        """`base_version` is the globally committed install version the
        partition's gateways hold at activation: regional versions are
        allocated strictly above it, so regional installs supersede the
        stale global rows inside the partition.  `nib_reports` seeds the
        sub-controller's NIB with the global controller's last-known
        view of the intra-partition links (export format of
        `NetworkInformationBase.export_reports`)."""
        if len(regions) != len(set(regions)):
            raise ValueError(f"partition repeats a region: {regions}")
        self.regions: Tuple[str, ...] = tuple(sorted(regions))
        self.config = config
        self.base_version = int(base_version)
        self._version = int(base_version)
        # A deterministic seed of its own: derived from the deployment
        # seed and the region set (CRC, not `hash()` — string hashing
        # is randomized per process), so two concurrent partitions
        # never share RNG streams with each other or the global plane.
        digest = zlib.crc32(",".join(self.regions).encode())
        self.sub_seed = (seed * 1_000_003 + digest) % (2 ** 31)
        # Always monolithic, whatever the deployment runs: an
        # "incremental" engine reuses the previous epoch's solve, and a
        # sub-controller born mid-incident has no previous epoch of its
        # own — nor may it carry one across a partition boundary.
        self.controller = Controller(
            list(self.regions), control_config, pricing=pricing,
            symmetric_only=symmetric_only, premium_only=premium_only,
            internet_only=internet_only, sib_params=sib_params,
            control_mode="monolithic", seed=self.sub_seed)
        # Allocate regional stream ids from the disjoint high band.
        self.controller._workload._next_id = config.stream_id_base
        if nib_reports:
            member = set(self.regions)
            self.controller.nib.import_reports(
                [doc for doc in nib_reports
                 if doc["src"] in member and doc["dst"] in member])
        self.epochs_run = 0

    # -------------------------------------------------------------- versions
    def next_version(self) -> int:
        """Allocate the next regional install version (monotonic)."""
        self._version += 1
        return self._version

    @property
    def version_high(self) -> int:
        """The highest version this sub-controller ever allocated.

        Heal-time reconciliation fences the global installer to this
        value, so in-flight regional installs (delayed pushes included)
        always lose to the first post-heal global install.
        """
        return self._version

    # --------------------------------------------------------------- control
    def covers(self, region: str) -> bool:
        return region in self.regions

    def restrict_matrix(self, matrix: TrafficMatrix) -> TrafficMatrix:
        """`matrix` cut down to intra-partition demand only."""
        member = set(self.regions)
        return TrafficMatrix(
            list(self.regions),
            {(a, b): v for (a, b), v in matrix.items()
             if a in member and b in member})

    def run_epoch(self, now: float, matrix: TrafficMatrix,
                  gateways: Dict[str, int]) -> ControlOutput:
        """One degraded-mode control epoch over the partition."""
        output = self.controller.run_epoch(now, matrix, gateways)
        self.epochs_run += 1
        return output

    def ingest_reports(self, reports) -> None:
        """Feed intra-partition probe reports into the local NIB."""
        member = set(self.regions)
        self.controller.nib.update_many(
            [r for r in reports if r.src in member and r.dst in member])


__all__ = ["REGIONAL_STREAM_BASE", "RegionalControlConfig",
           "PartitionCounters", "RegionalController", "regional_control"]
