"""Application-level quality models.

Maps network-level path series (latency, loss) to the user-experience
metrics the paper reports: video stall ratio and stall durations
(Figs. 13a, 14), frame rate (Fig. 13b), and audio fluency scored 1-5 with
an E-model-style rating (Figs. 13c, 15).  The models are monotone in
latency and loss, so *relative* comparisons across system versions — the
paper's normalised plots — are preserved.
"""

from repro.qoe.video import (VideoQoEConfig, stall_series, stall_durations,
                             stall_duration_buckets, frame_rate_series)
from repro.qoe.audio import (AudioQoEConfig, e_model_r_factor, r_to_mos,
                             audio_fluency_series)
from repro.qoe.metrics import QoESummary

__all__ = [
    "VideoQoEConfig",
    "stall_series",
    "stall_durations",
    "stall_duration_buckets",
    "frame_rate_series",
    "AudioQoEConfig",
    "e_model_r_factor",
    "r_to_mos",
    "audio_fluency_series",
    "QoESummary",
]
