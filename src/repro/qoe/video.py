"""Video quality: stalls and frame rate.

A video stall happens when the receiver's jitter buffer drains: in
practice when the transport latency spikes past the interactive budget or
when packet loss exceeds what forward error correction can repair, so
frames wait for multi-RTT retransmissions (§2.2 of the paper describes
exactly this mechanism).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class VideoQoEConfig:
    """Thresholds of the stall / frame-rate models."""

    #: One-way latency beyond which interactive video visibly stalls.
    stall_latency_ms: float = 400.0
    #: Loss rate FEC can fully repair (typical 20-30% redundancy streams
    #: repair ~5% random loss).
    fec_recoverable_loss: float = 0.05
    #: Nominal encoder frame rate.
    nominal_fps: float = 25.0
    #: How aggressively unrepaired loss eats frames (frames carried by
    #: multiple packets: one lost packet can invalidate a whole frame).
    loss_fps_sensitivity: float = 4.0
    #: Frame-rate floor as a fraction of nominal while stalled.
    stalled_fps_fraction: float = 0.2


def stall_series(latency_ms: np.ndarray, loss_rate: np.ndarray,
                 config: VideoQoEConfig = VideoQoEConfig()) -> np.ndarray:
    """Boolean per-sample stall classification."""
    lat = np.asarray(latency_ms, dtype=float)
    loss = np.asarray(loss_rate, dtype=float)
    if lat.shape != loss.shape:
        raise ValueError("latency and loss series must align")
    return (lat > config.stall_latency_ms) | (loss > config.fec_recoverable_loss)


def stall_durations(stalled: np.ndarray, step_s: float) -> np.ndarray:
    """Durations (seconds) of contiguous stall runs."""
    s = np.asarray(stalled, dtype=bool)
    if s.size == 0:
        return np.zeros(0)
    # Run-length encode: boundaries where the value changes.
    change = np.flatnonzero(np.diff(s.astype(np.int8)))
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [s.size]])
    lengths = ends - starts
    values = s[starts]
    return lengths[values] * step_s


def stall_duration_buckets(stalled: np.ndarray,
                           step_s: float) -> Tuple[int, int, int]:
    """Counts of long stalls in the paper's Fig. 14 buckets:
    2-5 s, 5-10 s, > 10 s."""
    durations = stall_durations(stalled, step_s)
    return (int(np.sum((durations >= 2.0) & (durations < 5.0))),
            int(np.sum((durations >= 5.0) & (durations < 10.0))),
            int(np.sum(durations >= 10.0)))


def frame_rate_series(latency_ms: np.ndarray, loss_rate: np.ndarray,
                      config: VideoQoEConfig = VideoQoEConfig()) -> np.ndarray:
    """Delivered frame rate per sample.

    Unrepaired loss invalidates frames (several packets per frame), and
    stalled periods deliver only a trickle of late frames.
    """
    lat = np.asarray(latency_ms, dtype=float)
    loss = np.asarray(loss_rate, dtype=float)
    unrepaired = np.maximum(0.0, loss - config.fec_recoverable_loss)
    frame_survival = np.clip(
        1.0 - config.loss_fps_sensitivity * unrepaired, 0.0, 1.0)
    fps = config.nominal_fps * frame_survival
    stalled = stall_series(lat, loss, config)
    floor = config.nominal_fps * config.stalled_fps_fraction
    return np.where(stalled, np.minimum(fps, floor), fps)
