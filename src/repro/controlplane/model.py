"""Problem model: paths, constraints, and the objective (§5.2, Table 1).

The optimisation: choose forwarding paths P_{m,n} (over Internet and
premium links, possibly via relay regions) and container counts N_i to

    minimise  w_lat * UtilLat + w_cost * UtilCost

subject to per-path latency and loss limits, per-region container
processing capacity B_c * N_i, per-region Internet bandwidth B_I^i,
per-pair premium bandwidth B_d^{i,j}, and the container quota N_max.
The exact problem is NP-hard (multi-commodity flow with integral paths);
`pathcontrol` and `capacity` implement the paper's scalable heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.underlay.linkstate import LinkType

#: One hop of an overlay path: (src region, dst region, link type).
PathHop = Tuple[str, str, LinkType]

# The §5.2 model's calibrated constants that several modules read.  The
# solver's modules look them up on this module at call time, so a test
# patches each in one place.

#: Processing capacity of one gateway container, Mbps (B_c).
CONTAINER_CAPACITY_MBPS = 1000.0
#: Container quota per region (N_max).
MAX_CONTAINERS = 64
#: Latency-equivalent penalty per unit loss inside edge weights and
#: reaction-plan scores (1% loss ~ 25 ms of badness).
LOSS_MS_PENALTY = 2500.0
#: Path latency limit: max(floor, multiple of the best direct latency).
LATENCY_LIMIT_FLOOR_MS = 400.0
LATENCY_LIMIT_STRETCH = 1.6


def latency_limit_ms(direct_premium_latency_ms: float) -> float:
    """Per-pair latency limit (Lat_Limit_{m,n}).

    Far-apart region pairs cannot meet a flat 400 ms two-way budget, so
    the limit is the larger of the floor and a stretch of the best
    achievable (direct premium) latency.
    """
    return max(LATENCY_LIMIT_FLOOR_MS,
               LATENCY_LIMIT_STRETCH * direct_premium_latency_ms)


@dataclass(frozen=True)
class OverlayPath:
    """A forwarding path from a source region to a destination region."""

    hops: Tuple[PathHop, ...]
    #: All regions the path touches, source first.  Derived from `hops`
    #: and set where the path is constructed (every consumer reads it,
    #: several times per assignment), so it takes no part in equality,
    #: hashing or the repr.
    regions: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a path needs at least one hop")
        for (a, b), (c, __) in zip(
                [(h[0], h[1]) for h in self.hops[:-1]],
                [(h[0], h[1]) for h in self.hops[1:]]):
            if b != c:
                raise ValueError(f"disconnected hops in path {self.hops}")
        object.__setattr__(self, "regions", _regions_of(self.hops))

    @property
    def dst(self) -> str:
        return self.hops[-1][1]

    @staticmethod
    def unchecked(hops: Tuple[PathHop, ...],
                  regions: Optional[Tuple[str, ...]] = None) -> "OverlayPath":
        """Construct without the connectivity check.

        For callers whose hops are connected by construction (a route
        row of the solver, `via`): `__post_init__` would re-validate
        what the construction already guarantees.  Such a caller usually
        holds the region sequence too and passes it as `regions`.
        """
        path = object.__new__(OverlayPath)
        object.__setattr__(path, "hops", hops)
        object.__setattr__(path, "regions", regions if regions is not None
                           else _regions_of(hops))
        return path

    @staticmethod
    def direct(src: str, dst: str, link_type: LinkType) -> "OverlayPath":
        return OverlayPath.unchecked(((src, dst, link_type),), (src, dst))

    @staticmethod
    def via(regions: Sequence[str], link_type: LinkType) -> "OverlayPath":
        """A path through `regions` using one link type throughout."""
        if len(regions) < 2:
            raise ValueError("need at least src and dst")
        hops = tuple((regions[i], regions[i + 1], link_type)
                     for i in range(len(regions) - 1))
        return OverlayPath.unchecked(hops, tuple(regions))


def _regions_of(hops: Tuple[PathHop, ...]) -> Tuple[str, ...]:
    return (hops[0][0],) + tuple(h[1] for h in hops)


@dataclass
class ControlConfig:
    """The settings of the control algorithms and the §5.2 model that
    callers vary: the bandwidth limits, the fee exchange rate, the hop
    cap."""

    #: Per-region Internet egress bandwidth limit, Mbps (B_I^i).
    internet_bandwidth_mbps: float = 40000.0
    #: Per-pair premium bandwidth limit, Mbps (B_d^{i,j}).
    premium_bandwidth_mbps: float = 8000.0
    #: Paths are capped at this many overlay hops (94% of paper paths <= 2).
    max_hops: int = 3
    #: Cost-vs-latency exchange rate inside the shortest-path edge weight:
    #: ms of latency one normalised fee unit is worth.  This is what makes
    #: the hybrid prefer cheap Internet links when their quality suffices.
    cost_ms_per_fee: float = 120.0


@dataclass
class ObjectiveBreakdown:
    """Evaluated objective terms for one control output."""

    util_lat: float
    util_cost: float
