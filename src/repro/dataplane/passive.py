"""Passive tracking of data packets (§4.1).

Gateways watch the video-conferencing packets they forward (sequence
numbers and ACK timing, as in PlanetSeer-style trackers) and derive
latency/loss samples per adjacent link at no probing cost.  Passive
tracking alone is insufficient for idle links — that is what active
probing covers — but on busy links it supplies most samples.

`PassiveTracker` holds the open windows of many links at once, as a
struct of arrays like `EstimatorBank`: ``(links,)`` for a gateway,
``(gateway rows, links)`` for a monitoring block, whose `stacked`
windows make each gateway's its row.  A measurement tick books all its
hops in one `record`, and a flush closes every window in one `flush`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.obs import telemetry as _telemetry
from repro.obs.metrics import HotCounters

_TEL = _telemetry()
_FLUSH_COUNTERS = HotCounters("passive.flushes", "passive.samples",
                              "passive.packets")

#: Windows flush only when they saw at least this many packets — tiny
#: samples are too noisy to feed the estimator.
MIN_PACKETS = 20

#: The window arrays of a `PassiveTracker`, and their types.
_WINDOWS = {"packets_sent": np.int64, "packets_lost": np.int64,
            "latency_sum_ms": np.float64, "latency_samples": np.int64}


class PassiveTracker:
    """Aggregates per-packet observations into periodic link samples.

    Every window array has the tracker's shape; `record` and `flush`
    address windows by flat position, so a gateway's tracker and a
    block's take the same calls.
    """

    __slots__ = tuple(_WINDOWS)

    def __init__(self, shape):
        for name, dtype in _WINDOWS.items():
            setattr(self, name, np.zeros(shape, dtype=dtype))

    @classmethod
    def stacked(cls, trackers: Sequence["PassiveTracker"]
                ) -> "PassiveTracker":
        """A block holding a copy of `trackers`' windows, one row each;
        every tracker then becomes its row (a view, as with
        `EstimatorBank.stacked`)."""
        block = cls((0,))
        shape = (len(trackers),) + trackers[0].packets_sent.shape
        for name in _WINDOWS:
            rows = np.concatenate([getattr(tracker, name).ravel()
                                   for tracker in trackers]).reshape(shape)
            setattr(block, name, rows)
            for tracker, row in zip(trackers, rows):
                setattr(tracker, name, row)
        return block

    def record(self, links, packets_sent: int, packets_lost,
               latency_ms) -> None:
        """Account batches of `packets_sent` forwarded data packets, one
        per element of `links` (flat positions of windows), of which
        the matching element of `packets_lost` were lost, at the
        matching element of `latency_ms`.

        Each window array takes one in-order `np.add.at`, so a window
        booked twice adds the two batches in `links` order: the IEEE
        additions of one ``+=`` per batch.  A batch that lost every
        packet adds no latency sample."""
        links, lost, latency_ms = map(np.atleast_1d,
                                      (links, packets_lost, latency_ms))
        # `initial=0` makes a negative `packets_sent` fail the second test.
        if lost.min(initial=0) < 0 or lost.max(initial=0) > packets_sent:
            raise ValueError(f"invalid packet counts sent={packets_sent} "
                             f"lost={lost.tolist()}")
        np.add.at(self.packets_sent.reshape(-1), links, packets_sent)
        np.add.at(self.packets_lost.reshape(-1), links, lost)
        seen = lost < packets_sent
        np.add.at(self.latency_sum_ms.reshape(-1), links[seen],
                  latency_ms[seen])
        np.add.at(self.latency_samples.reshape(-1), links[seen], 1)

    def flush(self, rows
              ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """Close and reset the windows of `rows` (an index of the first
        axis, ``slice(None)`` for all).  Returns ``(index, latency_ms,
        loss_rate)`` of the sufficiently busy ones, in flat order: their
        index into the tracker's shape, mean latency (0 for a window
        that lost every packet) and loss rate."""
        sent = self.packets_sent[rows]
        # One flush per gateway of `rows`.
        flushed = int(np.prod(sent.shape[:-1]))
        where = np.nonzero(sent >= MIN_PACKETS)
        sent = sent[where]
        samples = self.latency_samples[rows][where]
        latency_ms = np.divide(self.latency_sum_ms[rows][where], samples,
                               out=np.zeros(len(sent)), where=samples > 0)
        loss_rate = self.packets_lost[rows][where] / sent
        if _TEL.enabled:
            flushes, sampled, packets = _FLUSH_COUNTERS.fetch(_TEL.metrics)
            flushes.inc(flushed)
            sampled.inc(len(sent))
            packets.inc(int(sent.sum()))
        for name in _WINDOWS:
            getattr(self, name)[rows] = 0
        index = np.arange(self.packets_sent.shape[0])[rows][where[0]]
        return (index,) + where[1:], latency_ms, loss_rate
