"""Calibration constants for the synthetic underlay.

Every number here is chosen to make the synthetic link processes reproduce
the *measured* statistics in §2.2 of the paper (Figs. 1-3, 8-9): average
latency/loss levels of Internet vs premium links, the heavy-tailed spikes,
the short-vs-long degradation counts and directional asymmetry.  The
defaults are the calibrated values; tests in ``tests/underlay`` assert
the reproduction targets hold.  The intra-pair similarity (Fig. 7) and
the pricing gap (Fig. 4) are constants of `repro.underlay.similarity`
and `repro.underlay.pricing`, the bad-link bounds of
`repro.underlay.linkstate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class InternetLinkConfig:
    """Parameters of Internet-link latency/loss processes (one direction)."""

    #: Multiplier on the great-circle fibre delay; Internet routes detour.
    stretch_min: float = 1.5
    stretch_max: float = 2.6
    #: Lognormal sigma of the per-second multiplicative latency jitter.
    jitter_sigma: float = 0.10
    #: Peak amplitude of the diurnal congestion latency factor.
    diurnal_latency_amp: float = 0.25
    #: Baseline random loss (fraction), before bursts.
    base_loss_min: float = 0.0001
    base_loss_max: float = 0.002
    #: Peak amplitude of the diurnal loss addition (fraction) for a
    #: badness-1 link; scaled superlinearly with badness when built.
    diurnal_loss_amp: float = 0.0010

    # --- degradation events (per-link Poisson arrivals) --------------------
    #: Mean short (<30 s) degradation events per day for a badness-1 link.
    short_events_per_day: float = 370.0
    #: Mean long (>30 s) degradation events per day for a badness-1 link.
    long_events_per_day: float = 2.8
    #: Mean duration of short events, seconds (exponential).
    short_duration_mean_s: float = 8.0
    #: Long event durations: lognormal(mu, sigma) of seconds, shifted +30 s.
    long_duration_mu: float = 4.6
    long_duration_sigma: float = 1.2
    #: Latency added during an event, ms: lognormal(mu, sigma).
    event_latency_mu: float = 5.9
    event_latency_sigma: float = 1.4
    #: Loss added during an event (fraction): lognormal of ln(loss).
    event_loss_mu: float = -3.6
    event_loss_sigma: float = 1.1
    #: Per-link heterogeneity: event rates are scaled by a Pareto factor so
    #: a minority of links are much worse (Fig. 3's long tail).
    badness_pareto_alpha: float = 1.6
    badness_max: float = 8.0
    #: Event *rate* scales as badness ** rate_exponent.
    rate_exponent: float = 1.3
    #: Diurnal loss amplitude scales as badness ** diurnal_loss_exponent.
    diurnal_loss_exponent: float = 1.5


@dataclass
class PremiumLinkConfig:
    """Parameters of premium-link processes (one direction)."""

    stretch_min: float = 1.25
    stretch_max: float = 1.55
    jitter_sigma: float = 0.015
    diurnal_latency_amp: float = 0.02
    base_loss_min: float = 0.000005
    base_loss_max: float = 0.00008
    diurnal_loss_amp: float = 0.00002

    short_events_per_day: float = 4.0
    long_events_per_day: float = 0.05
    short_duration_mean_s: float = 5.0
    long_duration_mu: float = 4.0
    long_duration_sigma: float = 0.8
    event_latency_mu: float = 3.2
    event_latency_sigma: float = 0.7
    event_loss_mu: float = -5.2
    event_loss_sigma: float = 0.8
    badness_pareto_alpha: float = 3.0
    badness_max: float = 2.5
    rate_exponent: float = 1.0
    diurnal_loss_exponent: float = 1.0


@dataclass
class UnderlayConfig:
    """Top-level configuration of the synthetic underlay."""

    internet: InternetLinkConfig = field(default_factory=InternetLinkConfig)
    premium: PremiumLinkConfig = field(default_factory=PremiumLinkConfig)

    #: Horizon (seconds) for which degradation timelines are pre-generated.
    #: Queries beyond the horizon raise, rather than silently extrapolating.
    #: Multi-week experiments build one underlay per day (seeded by day
    #: index) instead of one huge horizon.
    horizon_s: float = 2 * 86400.0
