"""Stream-level workload: the application knowledge in the SIB.

The controller's SIB stores per-stream application information: source,
destination, bitrate, video type, frame rate, resolution (§3, §5.1).  This
module decomposes a pair's aggregate demand into stream entries with
realistic video profiles; the controller's Algorithm 1 then schedules
streams (sorted by latency, split across paths when needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class VideoProfile:
    """An encoding profile a conferencing client may use."""

    name: str
    bitrate_mbps: float
    frame_rate: float
    resolution: Tuple[int, int]
    #: Relative popularity used when drawing sessions.
    weight: float


#: Typical simulcast layers of a video-conferencing service.
VIDEO_PROFILES: List[VideoProfile] = [
    VideoProfile("audio-only", 0.064, 0.0, (0, 0), 0.15),
    VideoProfile("ld-360p", 0.6, 15.0, (640, 360), 0.20),
    VideoProfile("sd-480p", 1.2, 25.0, (848, 480), 0.30),
    VideoProfile("hd-720p", 2.5, 25.0, (1280, 720), 0.25),
    VideoProfile("fhd-1080p", 4.0, 30.0, (1920, 1080), 0.08),
    VideoProfile("screenshare", 1.8, 10.0, (1920, 1080), 0.02),
]


@dataclass
class Stream:
    """A schedulable unit of demand from one region to another.

    A `Stream` may represent a single session or an aggregate chunk of
    sessions with the same (src, dst); `demand_mbps` is what Algorithm 1
    must place on paths.
    """

    stream_id: int
    src: str
    dst: str
    demand_mbps: float
    profile: VideoProfile
    #: Number of user sessions aggregated into this entry.
    session_count: int = 1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"stream {self.stream_id}: src == dst ({self.src})")
        if self.demand_mbps < 0:
            raise ValueError(
                f"stream {self.stream_id}: negative demand {self.demand_mbps}")


class StreamWorkload:
    """Decomposes a traffic matrix into SIB stream entries."""

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 max_streams_per_pair: int = 8):
        if max_streams_per_pair < 1:
            raise ValueError("need at least one stream per pair")
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.max_streams_per_pair = max_streams_per_pair
        #: Next stream id — a plain int (not itertools.count) so the
        #: counter is checkpointable alongside the RNG state.
        self._next_id = 0

    def decompose(self, matrix: TrafficMatrix) -> List[Stream]:
        """Split each pair's demand into up to `max_streams_per_pair` chunks.

        Chunk sizes follow a Dirichlet draw so pairs do not split into
        identical slices; each chunk is tagged with a representative video
        profile drawn by popularity.
        """
        weights = np.array([p.weight for p in VIDEO_PROFILES])
        weights = weights / weights.sum()
        streams: List[Stream] = []
        for (src, dst), demand in matrix.items():
            if demand <= 0:
                continue
            n_chunks = min(self.max_streams_per_pair,
                           max(1, int(np.ceil(demand / 50.0))))
            shares = self._rng.dirichlet(np.ones(n_chunks) * 4.0)
            profiles = self._rng.choice(len(VIDEO_PROFILES), size=n_chunks,
                                        p=weights)
            for share, pidx in zip(shares, profiles):
                profile = VIDEO_PROFILES[int(pidx)]
                chunk = float(demand * share)
                if chunk <= 0:
                    continue
                sessions = max(1, int(round(chunk / profile.bitrate_mbps)))
                sid = self._next_id
                self._next_id += 1
                streams.append(Stream(sid, src, dst, chunk,
                                      profile, sessions))
        return streams

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """Id counter + RNG state, so a warm-restarted controller keeps
        allocating globally fresh stream ids with the same draw sequence."""
        return {"next_id": self._next_id,
                "rng": self._rng.bit_generator.state}

    def import_state(self, doc: Dict[str, object]) -> None:
        self._next_id = int(doc["next_id"])
        self._rng.bit_generator.state = doc["rng"]
