"""The per-instant `BurstNoise.at`, kept as the oracle of the block
reader (`repro.dataplane.probing.BurstNoise`).

Before the blocks, every instant the event engine probed or measured
read one shared, read-only snapshot of every link (`Underlay.state_at`,
remembering the last instant asked) and drew that instant's bursts from
it in one `burst_draws` call at burst ``round(now / interval_s)``.
`InstantNoise.at` is that body, without the memo.  Its truth at the
instant is `Underlay.link_series` over every link — the view path the
scalar link model pins (`tests/underlay/test_linkstate.py`) — because
`Underlay.snapshot` now reads a one-instant block itself.
"""

from typing import Tuple

import numpy as np

from repro.dataplane.probing import burst_draws


class InstantNoise:
    """`BurstNoise.at` of the reader `noise` (its links, seeds, packets
    and interval), evaluated afresh at every instant."""

    def __init__(self, noise):
        self.underlay = noise.underlay
        self.hops = noise.hops
        self.seeds = noise.seeds
        self.packets = noise.packets
        self.interval_s = noise.interval_s

    def at(self, now: float) -> Tuple[np.ndarray, ...]:
        lat, loss = self.underlay.link_series(self.hops, [now])
        lat, loss = lat[:, 0], loss[:, 0]
        return (lat, loss) + burst_draws(
            self.seeds, round(now / self.interval_s), loss, self.packets)
