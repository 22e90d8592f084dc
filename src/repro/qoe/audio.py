"""Audio fluency: an E-model-style rating scored one to five.

The paper measures audio fluency with "an improved version of the
E-model" (ITU-T G.107/G.107.1), considering loudness, SNR, echo and
end-to-end latency.  We implement the transmission-planning core of the
E-model — the R-factor with delay impairment Id and effective equipment
impairment Ie_eff driven by packet loss — and map R to a 1-5 MOS-like
fluency score.  That captures everything the *network* influences, which
is what the version comparison isolates.
"""

from __future__ import annotations

import numpy as np

# E-model parameters (G.107 defaults, wideband-flavoured).

#: Base rating with all impairments at zero (G.107.1 wideband allows up
#: to ~129; we keep the classic 93.2 so scores map cleanly to MOS).
R_BASE = 93.2
#: Codec baseline equipment impairment (modern Opus-like codec).
IE_CODEC = 0.0
#: Packet-loss robustness factor Bpl (higher = more loss-tolerant,
#: in-band FEC raises it).
BPL = 18.0
#: Random-loss behaviour exponent BurstR (1 = random loss).
BURST_R = 1.0
#: Delay threshold of the Id kink, ms (G.107: 177.3 ms one-way).
DELAY_KNEE_MS = 177.3


def e_model_r_factor(latency_ms: np.ndarray,
                     loss_rate: np.ndarray) -> np.ndarray:
    """Transmission rating R for one-way latency + loss series."""
    d = np.asarray(latency_ms, dtype=float)
    ppl = np.asarray(loss_rate, dtype=float) * 100.0  # percent
    if d.shape != ppl.shape:
        raise ValueError("latency and loss series must align")
    # Delay impairment Id (simplified G.107 form).
    idd = 0.024 * d + 0.11 * np.maximum(d - DELAY_KNEE_MS, 0.0)
    # Effective equipment impairment Ie_eff.
    ie_eff = IE_CODEC + (95.0 - IE_CODEC) * ppl / (ppl / BURST_R + BPL)
    return R_BASE - idd - ie_eff


def r_to_mos(r: np.ndarray) -> np.ndarray:
    """ITU-T G.107 Annex B mapping from R to MOS (1..~4.5)."""
    r = np.clip(np.asarray(r, dtype=float), 0.0, 100.0)
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    return np.clip(mos, 1.0, 5.0)


def audio_fluency_series(latency_ms: np.ndarray,
                         loss_rate: np.ndarray) -> np.ndarray:
    """Fluency scores in [1, 5] per sample (higher is better)."""
    r = e_model_r_factor(latency_ms, loss_rate)
    # The paper scores 1..5; G.107 MOS tops out near 4.5, so stretch the
    # scale so a perfect network scores 5.0.
    mos = r_to_mos(r)
    return np.clip(1.0 + (mos - 1.0) * (4.0 / 3.5), 1.0, 5.0)

