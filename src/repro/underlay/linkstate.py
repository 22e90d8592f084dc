"""Per-link latency and loss processes.

Each directed (source region, destination region, link type) gets a
`LinkProcess`: a deterministic function of virtual time built from

* a base one-way latency (great-circle fibre delay x per-direction stretch),
* a diurnal congestion term following the source region's local busy hours,
* stateless multiplicative jitter (hash noise, so any instant can be
  sampled without history),
* a pre-generated degradation-event timeline adding heavy-tailed latency
  and loss excursions.

The two directions of a pair are *independent* processes — different
stretch, different noise, different events — which produces the >60%
directional-asymmetry the paper measures (Fig. 8).
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.sim.rng import hash_noise
from repro.underlay.events import EventTimeline
from repro.underlay.regions import Region


class LinkType(enum.Enum):
    """The two network tiers the overlay can use between any region pair."""

    INTERNET = "internet"
    PREMIUM = "premium"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def busy_factor(hours_local) -> np.ndarray:
    """Smooth 0..1 'how busy is the Internet here' diurnal curve.

    Low overnight, high through local working/evening hours (~09-22).
    """
    h = np.asarray(hours_local, dtype=float) % 24.0
    # A raised-cosine bump centred at 15:30 local, width ~14 h.
    x = (h - 15.5) / 14.0 * np.pi
    # `c * c`, not `c ** 2`: a NumPy scalar squares through libm `pow`,
    # an array by multiplying, and the two differ in the last bit now
    # and then — the scalar link model must equal the array one.
    c = np.cos(x)
    return np.where(np.abs(x) < np.pi / 2.0, c * c, 0.0)


class LinkProcess:
    """Deterministic latency/loss process for one directed link."""

    def __init__(self, src: Region, dst: Region, link_type: LinkType, *,
                 base_latency_ms: float, jitter_sigma: float,
                 diurnal_latency_amp: float, base_loss: float,
                 diurnal_loss_amp: float, timeline: EventTimeline,
                 noise_seed: int):
        if base_latency_ms <= 0:
            raise ValueError(f"base latency must be positive: {base_latency_ms}")
        if not 0.0 <= base_loss < 1.0:
            raise ValueError(f"base loss must be in [0,1): {base_loss}")
        self.src = src
        self.dst = dst
        self.link_type = link_type
        self.base_latency_ms = float(base_latency_ms)
        self.jitter_sigma = float(jitter_sigma)
        self.diurnal_latency_amp = float(diurnal_latency_amp)
        self.base_loss = float(base_loss)
        self.diurnal_loss_amp = float(diurnal_loss_amp)
        self.timeline = timeline
        self.noise_seed = int(noise_seed)

    # ------------------------------------------------------------------ api
    def latency_ms(self, t) -> np.ndarray:
        """One-way latency in ms at time(s) `t` (seconds of virtual time)."""
        t = np.asarray(t, dtype=float)
        self._check_horizon(t)
        local_h = (t / 3600.0 + self.src.utc_offset) % 24.0
        diurnal = 1.0 + self.diurnal_latency_amp * busy_factor(local_h)
        jitter = np.exp(self.jitter_sigma * hash_noise(self.noise_seed, t, salt=1))
        return self.base_latency_ms * diurnal * jitter + self.timeline.latency_add(t)

    def loss_rate(self, t) -> np.ndarray:
        """Loss rate in [0, 1] at time(s) `t`."""
        t = np.asarray(t, dtype=float)
        self._check_horizon(t)
        local_h = (t / 3600.0 + self.src.utc_offset) % 24.0
        diurnal = self.diurnal_loss_amp * busy_factor(local_h)
        jitter = np.exp(0.6 * hash_noise(self.noise_seed, t, salt=2))
        raw = self.base_loss * jitter + diurnal + self.timeline.loss_add(t)
        return np.clip(raw, 0.0, 1.0)

    def series(self, t0: float, t1: float,
               step: float = 1.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, latency_ms, loss_rate) sampled every `step` seconds."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        times = np.arange(t0, t1, step)
        return times, self.latency_ms(times), self.loss_rate(times)

    def bad_fraction(self, t0: float, t1: float, step: float = 1.0, *,
                     high_latency_ms: float = 400.0,
                     high_loss_rate: float = 0.005) -> Tuple[float, float]:
        """Fraction of time with high latency / high loss (Fig. 3's metric)."""
        __, lat, loss = self.series(t0, t1, step)
        return (float(np.mean(lat > high_latency_ms)),
                float(np.mean(loss > high_loss_rate)))

    def quality_series(self, t0: float, t1: float, step: float = 1.0, *,
                       high_latency_ms: float = 400.0,
                       high_loss_rate: float = 0.005) -> np.ndarray:
        """Boolean good(False)/bad(True) classification over a window."""
        __, lat, loss = self.series(t0, t1, step)
        return (lat > high_latency_ms) | (loss > high_loss_rate)

    # -------------------------------------------------------------- internal
    def _check_horizon(self, t: np.ndarray) -> None:
        if t.size and float(np.max(t)) > self.timeline.horizon_s:
            raise ValueError(
                f"query at t={float(np.max(t)):.0f}s exceeds the generated "
                f"horizon {self.timeline.horizon_s:.0f}s; build the underlay "
                "with a larger horizon")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LinkProcess({self.src.code}->{self.dst.code}, "
                f"{self.link_type.value}, base={self.base_latency_ms:.1f}ms)")
