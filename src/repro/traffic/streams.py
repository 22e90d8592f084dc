"""Stream-level workload: the application knowledge in the SIB.

The controller's SIB stores per-stream application information: source,
destination, bitrate, video type, frame rate, resolution (§3, §5.1).  This
module decomposes a pair's aggregate demand into stream entries with
realistic video profiles; the controller's Algorithm 1 then schedules
streams (sorted by latency, split across paths when needed).

A decomposition is one `StreamTable`: parallel columns the solver reads
directly.  `Stream` objects are made from it only at the boundary, when
an experiment or a test asks for them (`StreamTable.streams`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
        if not self.demand_mbps >= 0:
            raise ValueError(f"stream {self.stream_id}: negative demand "
                             f"or NaN: {self.demand_mbps}")


class StreamTable:
    """One decomposition's streams as parallel columns.

    Row ``k`` is one SIB entry: ``stream_id[k]``; the indices ``src[k]``
    / ``dst[k]`` of its regions in `codes`; its demand ``mbps[k]``; the
    index ``profile[k]`` of its representative profile in
    `VIDEO_PROFILES`; and ``sessions[k]``, the user sessions it carries
    (a float: a cohort's marginal session is fractional).  The table
    checks once, over whole columns, what `Stream` checks per object
    (a demand is valid only if ``mbps >= 0``, so NaN is rejected), and
    negative sessions too.  `streams` builds the `Stream` objects —
    the boundary form, with ``session_count = max(1, round(sessions))``
    — once, on first call.
    """

    def __init__(self, codes: Sequence[str], stream_id, src, dst, mbps,
                 profile, sessions):
        self.codes = list(codes)
        self.stream_id = np.asarray(stream_id, dtype=np.int64)
        self.src = np.asarray(src, dtype=np.intp)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.mbps = np.asarray(mbps, dtype=float)
        self.profile = np.asarray(profile, dtype=np.intp)
        self.sessions = np.asarray(sessions, dtype=float)
        for bad, what in ((self.src == self.dst, "src == dst"),
                          (~(self.mbps >= 0), "negative demand or NaN"),
                          (self.sessions < 0, "negative sessions")):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    f"stream {self.stream_id[k]}: {what} "
                    f"({self.codes[self.src[k]]}->{self.codes[self.dst[k]]}, "
                    f"{self.mbps[k]} Mbps, {self.sessions[k]} sessions)")
        self._streams: Optional[List[Stream]] = None

    def __len__(self) -> int:
        return len(self.stream_id)

    def streams(self) -> List[Stream]:
        """The rows as `Stream` objects, in row order."""
        if self._streams is None:
            codes = self.codes
            self._streams = [
                Stream(sid, codes[a], codes[b], mbps, VIDEO_PROFILES[p],
                       max(1, int(round(sessions))))
                for sid, a, b, mbps, p, sessions in zip(
                    self.stream_id.tolist(), self.src.tolist(),
                    self.dst.tolist(), self.mbps.tolist(),
                    self.profile.tolist(), self.sessions.tolist())]
        return self._streams


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

    def decompose(self, matrix: TrafficMatrix) -> StreamTable:
        """Split each pair's demand into up to `max_streams_per_pair` chunks.

        Chunk sizes follow a Dirichlet draw so pairs do not split into
        identical slices; each chunk is tagged with a representative video
        profile drawn by popularity.  Per pair, one Dirichlet draw and
        then one profile draw, in `TrafficMatrix.items` order.
        """
        weights = np.array([p.weight for p in VIDEO_PROFILES])
        weights = weights / weights.sum()
        index = {code: i for i, code in enumerate(matrix.codes)}
        src_col: List[int] = []
        dst_col: List[int] = []
        mbps_col: List[float] = []
        profile_col: List[int] = []
        sessions_col: List[int] = []
        for (src, dst), demand in matrix.items():
            if demand <= 0:
                continue
            n_chunks = min(self.max_streams_per_pair,
                           max(1, int(np.ceil(demand / 50.0))))
            shares = self._rng.dirichlet(np.ones(n_chunks) * 4.0)
            profiles = self._rng.choice(len(VIDEO_PROFILES), size=n_chunks,
                                        p=weights)
            a, b = index[src], index[dst]
            for share, pidx in zip(shares, profiles.tolist()):
                chunk = float(demand * share)
                if chunk <= 0:
                    continue
                src_col.append(a)
                dst_col.append(b)
                mbps_col.append(chunk)
                profile_col.append(pidx)
                sessions_col.append(max(1, int(round(
                    chunk / VIDEO_PROFILES[pidx].bitrate_mbps))))
        first = self._next_id
        self._next_id += len(mbps_col)
        return StreamTable(matrix.codes, np.arange(first, self._next_id),
                           src_col, dst_col, mbps_col, profile_col,
                           sessions_col)

    # ------------------------------------------------------------ checkpoint
    def export_state(self) -> Dict[str, object]:
        """Id counter + RNG state, so a warm-restarted controller keeps
        allocating globally fresh stream ids with the same draw sequence."""
        return {"next_id": self._next_id,
                "rng": self._rng.bit_generator.state}

    def import_state(self, doc: Dict[str, object]) -> None:
        self._next_id = int(doc["next_id"])
        self._rng.bit_generator.state = doc["rng"]
