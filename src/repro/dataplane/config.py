"""Data-plane tunables (probing cadence, detection thresholds)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MonitoringConfig:
    """Active probing and estimation parameters (§4.1)."""

    #: Interval between probe bursts, seconds (paper: ~400 ms).
    burst_interval_s: float = 0.4
    #: Pseudo packets per burst (paper: fifteen 1.5 KB packets).
    packets_per_burst: int = 15
    packet_bytes: int = 1500
    #: EWMA smoothing factor for latency/loss estimates, in both engines'
    #: degradation detectors.
    ewma_alpha: float = 0.3
    #: Representatives per region pair for group-based probing (R).
    representatives: int = 2

    def __post_init__(self) -> None:
        if self.burst_interval_s <= 0:
            raise ValueError("burst interval must be positive")
        if self.packets_per_burst < 1:
            raise ValueError("need at least one packet per burst")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass
class ReactionConfig:
    """Fast-reaction detection thresholds and hysteresis (§4.3).  The
    switch itself is the variant's (`VariantSpec.fast_reaction`)."""

    #: Degradation thresholds (same semantics as the paper's §2.2 bounds,
    #: applied to burst-level measurements).
    latency_threshold_ms: float = 400.0
    #: Burst loss fraction counting as a bad burst (2/15 packets).
    loss_threshold: float = 0.12
    #: A slower, finer signal: EWMA of burst loss.  Detects sustained
    #: moderate loss that a 15-packet burst cannot resolve (the paper's
    #: 0.5% quality bound needs ~multi-burst averaging).
    ewma_loss_threshold: float = 0.015
    #: Consecutive bad bursts required to trigger the reaction.
    trigger_bursts: int = 2
    #: Consecutive good bursts required to revert to the normal path.
    recover_bursts: int = 10

    def __post_init__(self) -> None:
        if self.trigger_bursts < 1 or self.recover_bursts < 1:
            raise ValueError("hysteresis windows must be >= 1 burst")
