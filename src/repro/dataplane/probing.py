"""Active probing (§4.1).

Each gateway probes its adjacent overlay links with pseudo-packet bursts:
one burst every ~400 ms, fifteen 1.5 KB packets per burst.  A probe is
judged lost when more than twenty succeeding responses arrive first, or
when its response is still missing after three RTTs — both conditions
amount to "the reply did not come back in time", which is how the
simulation draws losses from the link's loss process.

`ActiveProber` is the event-mode object for one link and `BurstBatch`
what a gateway's round over all its links returns; `burst_series`
generates a whole window of burst measurements vectorised for the
day-scale experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np
from scipy.special import ndtri

from repro.dataplane.config import MonitoringConfig
from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters
from repro.sim.rng import hash_uniform
from repro.underlay.linkstate import LinkProcess

_TEL = _telemetry()
_BURST_COUNTERS = HotCounters("probing.bursts", "probing.bytes",
                              "probing.lost_packets")


@dataclass(frozen=True)
class ProbeBurst:
    """Result of one probe burst on a directed link."""

    time: float
    latency_ms: float
    sent: int
    lost: int
    #: Size of one pseudo packet (`MonitoringConfig.packet_bytes`).
    packet_bytes: int = 1500

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    @property
    def bytes_sent(self) -> int:
        return self.sent * self.packet_bytes


class BurstBatch:
    """One burst on each of several links at one instant, as arrays
    (measured latency and lost packets, in probing order).  Sized;
    iterating or indexing builds the `ProbeBurst`s."""

    __slots__ = ("time", "latency_ms", "lost", "sent", "packet_bytes")

    def __init__(self, time: float, latency_ms: np.ndarray, lost: np.ndarray,
                 config: MonitoringConfig):
        self.time = time
        self.latency_ms = latency_ms
        self.lost = lost
        self.sent = config.packets_per_burst
        self.packet_bytes = config.packet_bytes

    def __len__(self) -> int:
        return len(self.lost)

    def __getitem__(self, k: int) -> ProbeBurst:
        return ProbeBurst(self.time, float(self.latency_ms[k]), self.sent,
                          int(self.lost[k]), self.packet_bytes)


def burst_bytes(bursts: int, config: MonitoringConfig, lost: int) -> int:
    """Bytes `bursts` bursts put on the wire; counts them, and the
    `lost` packets among them, in the probing telemetry."""
    nbytes = bursts * config.packets_per_burst * config.packet_bytes
    if _TEL.enabled:
        counters = _BURST_COUNTERS.fetch(_TEL.metrics)
        for counter, amount in zip(counters, (bursts, nbytes, lost)):
            counter.inc(amount)
    return nbytes


class ActiveProber:
    """Probes one directed link with periodic bursts (event mode)."""

    def __init__(self, link: LinkProcess, config: MonitoringConfig,
                 rng: np.random.Generator):
        self.link = link
        self.config = config
        self._rng = rng
        self.bursts_sent = 0
        self.bytes_sent = 0

    def probe(self, now: float) -> ProbeBurst:
        """Send one burst at `now` against this prober's own link."""
        return self.measure(now, float(self.link.latency_ms(now)),
                            float(self.link.loss_rate(now)))

    def measure(self, now: float, true_latency: float,
                true_loss: float) -> ProbeBurst:
        """One burst at virtual time `now` over a link in the given state.

        The measured latency is the link's true latency plus a small
        measurement jitter; losses are binomial draws from the true loss
        rate (each packet is judged by the timeout / reordering rules,
        which in aggregate observe the loss process).
        """
        measured = true_latency * float(self._rng.uniform(0.98, 1.02))
        lost = int(self._rng.binomial(self.config.packets_per_burst,
                                      min(true_loss, 1.0)))
        self.bursts_sent += 1
        self.bytes_sent += burst_bytes(1, self.config, lost)
        return ProbeBurst(now, measured, self.config.packets_per_burst, lost,
                          self.config.packet_bytes)


#: True link state over a time grid: times -> (latency_ms, loss_rate).
LinkSeriesFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def burst_series(link: Union[LinkProcess, LinkSeriesFn], t0: float,
                 t1: float, config: MonitoringConfig,
                 seed: Union[int, np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised probing of a link over [t0, t1).

    Returns (burst_times, measured_latency_ms, burst_loss_fraction), one
    entry per burst interval.  Loss per burst is a deterministic
    quasi-binomial draw from the true loss rate (normal approximation via
    hash noise), so the whole series is reproducible without an event
    loop.

    To probe a block of links in one pass, give `link` as a function
    from the burst times to the block's true ``(links, bursts)`` latency
    and loss (`Underlay.link_series` with the hops bound) and `seed` as
    a ``(links, 1)`` uint64 column: the measured series then carry the
    same leading axis, and each row equals the one-link call.
    """
    if t1 <= t0:
        raise ValueError(f"empty probing window [{t0}, {t1})")
    times = np.arange(t0, t1, config.burst_interval_s)
    if callable(link):
        lat, loss = link(times)
    else:
        lat, loss = link.latency_ms(times), link.loss_rate(times)
    n = config.packets_per_burst
    # Quasi-binomial: mean n*p, variance n*p*(1-p); indexed by burst count
    # so the draw differs burst to burst even at equal loss rates.
    burst_index = np.arange(times.size)
    u = hash_uniform(seed, burst_index, salt=3)
    z = np.sqrt(np.maximum(n * loss * (1.0 - loss), 0.0))
    lost = np.clip(np.round(n * loss + z * _inv_norm(u)), 0, n)
    jitter = 0.98 + 0.04 * hash_uniform(seed, burst_index, salt=4)
    return times, lat * jitter, lost / n


def _inv_norm(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF, clipped away from 0 and 1."""
    return ndtri(np.clip(u, 1e-9, 1 - 1e-9))
