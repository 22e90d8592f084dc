"""Calibration of the traffic-demand model (§2.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class TrafficConfig:
    """Parameters of the three-peak demand model.

    The defaults reproduce the paper's measurements: a three-peak weekday
    pattern (peaks near 10:00, 16:00, 20:00 local), aggregate
    peak-to-trough >= 100x, per-pair >= 200x, and sharp five-minute surges
    when peaks ramp up.
    """

    #: Local hours of the three daily peaks (work morning, work afternoon,
    #: evening classes/meetings) — §5.1's observation.
    peak_hours: Tuple[float, float, float] = (10.0, 16.0, 20.0)
    #: Relative amplitude of each peak.
    peak_amps: Tuple[float, float, float] = (1.0, 0.9, 0.75)
    #: Gaussian width of each peak, hours.
    peak_width_h: float = 1.35
    #: Overnight floor as a fraction of the pair's peak demand.  Small, so
    #: peak/trough ratios are in the hundreds.
    floor_fraction: float = 0.0022
    #: 'Someone is awake but idle' offset added to each side's diurnal
    #: shape before coupling; controls how dead the global night is.
    shape_offset: float = 0.003
    #: Weekend demand multiplier (Fig. 11 shows weekend dips).
    weekend_factor: float = 0.22
    #: Lognormal sigma of slow multiplicative noise: independent anchors
    #: every 30 minutes, linearly interpolated in between.
    noise_sigma: float = 0.16
    #: Surge events per pair per weekday (rounded, at least one unless
    #: 0, which means none): a meeting block starting, demand jumping
    #: several-fold within five minutes.
    surges_per_day: float = 3.0
    #: Surge magnitude range (multiplier on current demand).
    surge_factor_min: float = 1.5
    surge_factor_max: float = 4.0
    #: Surge duration range, seconds.
    surge_duration_min_s: float = 600.0
    surge_duration_max_s: float = 3600.0
    #: Per-pair peak demand scale, Mbps: lognormal(mu, sigma) keeps a few
    #: heavy pairs and many light ones.
    pair_scale_mu: float = 5.0
    pair_scale_sigma: float = 0.9
    #: DingTalk's user base is China-centric: per-region activity weights
    #: multiply into pair scales (pair weight = product of endpoints).
    #: Keyed by UTC offset bucket; see DemandModel._activity.
    activity_china: float = 4.0
    activity_asia: float = 1.0
    activity_europe: float = 0.55
    activity_america: float = 0.45
    activity_australia: float = 0.4
    #: Session bitrates are drawn from VIDEO_PROFILES in streams.py.
    #: Cap of per-pair stream entries handed to the controller; demand is
    #: aggregated into at most this many stream chunks.
    max_streams_per_pair: int = 8
