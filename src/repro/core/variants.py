"""System variants compared in the paper's evaluation.

§6.1 compares three production versions: XRON, *Internet only* (the
pre-XRON service: clusters talk over direct Internet links) and *Premium
only* (direct premium links).  §6.4 ablates XRON itself: *XRON-Basic*
(everything except fast reaction), *XRON-Premium* (best overlay paths
restricted to premium links) and a *symmetric-forwarding* controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class VariantSpec:
    """What a system version is allowed to do."""

    name: str
    #: Link tiers the version may use.
    internet_allowed: bool = True
    premium_allowed: bool = True
    #: False — direct source->destination links only (the pre-overlay
    #: service versions); True — relay via intermediate regions.
    overlay_relaying: bool = True
    #: Local fast reaction to degradations (§4.3).
    fast_reaction: bool = True
    #: Controller sees round-trip-averaged link states (the §6.4
    #: asymmetric-forwarding ablation's baseline).
    symmetric_only: bool = False
    #: Proactive elastic capacity scaling; False keeps gateways fixed.
    elastic: bool = True

    def __post_init__(self) -> None:
        if not (self.internet_allowed or self.premium_allowed):
            raise ValueError("a variant must allow at least one link tier")
        if self.fast_reaction and not self.premium_allowed:
            raise ValueError(
                "fast reaction needs premium links for backup paths")

    def controller_kwargs(self) -> Dict[str, bool]:
        """The `Controller` restrictions this version imposes on path
        control (applied by `repro.core.config.build_controller`)."""
        return {"symmetric_only": self.symmetric_only,
                "premium_only": not self.internet_allowed,
                "internet_only": not self.premium_allowed}


def xron() -> VariantSpec:
    """Full XRON: hybrid, elastic, asymmetric, fast-reacting."""
    return VariantSpec(name="XRON")


def internet_only() -> VariantSpec:
    """The pre-XRON service: direct Internet links, nothing else."""
    return VariantSpec(name="Internet only", premium_allowed=False,
                       overlay_relaying=False, fast_reaction=False,
                       elastic=False)


def premium_only() -> VariantSpec:
    """The premium-subscription service: direct premium links."""
    return VariantSpec(name="Premium only", internet_allowed=False,
                       overlay_relaying=False, fast_reaction=False,
                       elastic=False)


def xron_basic() -> VariantSpec:
    """XRON without the fast reaction mechanism (§6.4 ablation)."""
    return VariantSpec(name="XRON-Basic", fast_reaction=False)


def xron_premium() -> VariantSpec:
    """Best overlay paths restricted to premium links (§6.4 ablation)."""
    return VariantSpec(name="XRON-Premium", internet_allowed=False,
                       fast_reaction=False)


def xron_symmetric() -> VariantSpec:
    """XRON with a symmetric-forwarding controller (§6.4 ablation)."""
    return VariantSpec(name="XRON-Symmetric", symmetric_only=True)


def standard_variants() -> List[VariantSpec]:
    """The §6.1 trio, in the paper's order."""
    return [xron(), internet_only(), premium_only()]
