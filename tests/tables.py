"""Stream tables and placed results for tests.

The solver reads streams only as a `StreamTable`.  A test states its
streams as `Stream` objects and `table_of` lays them out as columns,
row for row; `placed_on` is a path-control result with one stream on a
route the test chooses, for Algorithm 2's tests; `region_traffic` reads
a result's Mbps per region.
"""

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.controlplane.pathcontrol import PathControlResult, _RouteTable
from repro.traffic.streams import VIDEO_PROFILES, Stream, StreamTable


def table_of(streams: Iterable[Stream],
             codes: Sequence[str]) -> StreamTable:
    """The table of `streams` over the regions `codes`."""
    streams = list(streams)
    index = {code: i for i, code in enumerate(codes)}
    return StreamTable(codes, [s.stream_id for s in streams],
                       [index[s.src] for s in streams],
                       [index[s.dst] for s in streams],
                       [s.demand_mbps for s in streams],
                       [VIDEO_PROFILES.index(s.profile) for s in streams],
                       [s.session_count for s in streams])


def region_traffic(result: PathControlResult) -> Dict[str, float]:
    """Mbps `result` routes through each region (source, relays and
    destination alike), summed in assignment order."""
    return dict(zip(result.routes.codes, result.usage[0]))


def placed_on(regions: Sequence[str], codes: Sequence[str],
              stream_id: int = 1, mbps: float = 10.0) -> PathControlResult:
    """A result whose one assignment carries stream `stream_id` over
    Internet hops through `regions`."""
    codes = list(codes)
    n, ids = len(codes), [codes.index(r) for r in regions]
    routes = _RouteTable(codes, 2 * len(ids) - 1)
    row = np.array([ids + [n + a for a in ids[:-1]]], dtype=np.int32)
    result = PathControlResult(
        table_of([Stream(stream_id, regions[0], regions[-1], mbps,
                         VIDEO_PROFILES[0])], codes),
        routes)
    result.position = np.array([0])
    result.route = routes.intern(row, np.array([len(ids) - 1]),
                                 np.zeros(1), np.zeros(1))
    result.mbps = np.array([mbps])
    result.meets = np.array([True])
    return result
