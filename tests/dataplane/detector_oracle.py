"""The degradation detector as it ran on `scipy.signal.lfilter`, kept
as the oracle of its numpy scan (`repro.dataplane.estimator`).

`reaction_active_series` smoothed burst loss with one first-order IIR
filter, ``lfilter([a], [1, -(1 - a)], loss, axis=-1)``; `lfilter_ewma`
is that call and `reaction_active_series` the detector around it, as
the engine ran them.
"""

import numpy as np
from scipy.signal import lfilter


def lfilter_ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    return lfilter([alpha], [1.0, -(1.0 - alpha)], x, axis=-1)


def reaction_active_series(latency_ms, loss_fraction, reaction, monitoring):
    lat = np.asarray(latency_ms, dtype=float)
    loss = np.asarray(loss_fraction, dtype=float)
    if lat.shape != loss.shape:
        raise ValueError("latency and loss series must align")
    n = lat.shape[-1]
    if n == 0:
        return np.zeros(lat.shape, dtype=bool)
    ewma_loss = lfilter_ewma(loss, monitoring.ewma_alpha)
    bad = ((lat > reaction.latency_threshold_ms)
           | (loss >= reaction.loss_threshold)
           | (ewma_loss >= reaction.ewma_loss_threshold))

    k, m = reaction.trigger_bursts, reaction.recover_bursts
    trigger = _run_of(bad, k)
    recover = _run_of(~bad, m)
    idx = np.arange(n)
    last_trigger = np.maximum.accumulate(np.where(trigger, idx, -1), axis=-1)
    last_recover = np.maximum.accumulate(np.where(recover, idx, -1), axis=-1)
    return last_trigger > last_recover


def _run_of(flags, length):
    n = flags.shape[-1]
    out = np.zeros(flags.shape, dtype=bool)
    if n >= length:
        c = np.zeros(flags.shape[:-1] + (n + 1,), dtype=np.intp)
        np.cumsum(flags, axis=-1, out=c[..., 1:])
        out[..., length - 1:] = (c[..., length:] - c[..., :-length]) == length
    return out
