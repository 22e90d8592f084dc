"""The scalar measurement tick and passive flush, kept as the oracle of
the columnar ones.

Pins, in `src/repro`:
- `core/eventsim.py::EventDrivenXRON._measure`, `._walk` and
  `._flush_passive`;
- `dataplane/cluster.py::MonitoringBlock.book_passive` and
  `.flush_passive`, and `RegionCluster.flush_passive`;
- `dataplane/passive.py::PassiveTracker` (`record`, `flush`);
- `dataplane/gateway.py::Gateway.forward` (its unarmed rule) on
  `dataplane/forwarding.py::ForwardingTable`'s compiled routes.

Before the block held the windows as arrays, each gateway kept a dict
of per-link windows keyed by ``(src, dst, link type)``.  A tick walked
each tracked session hop by hop through `RegionCluster.resolve`'s round
robin, and the deciding gateway looked the stream's row up, then its
link's degraded flag by that key, and built its decision; each hop's
packets were booked on that gateway with one `record`.  A flush closed
every gateway's windows, kept its own region's links and ran one
`EstimatorBank.ingest` per cluster (`cluster_flush`).  `ScalarTick` is that tick and
flush over a deployment's clusters, with windows of its own.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataplane.passive import MIN_PACKETS
from repro.underlay.linkstate import LinkType

#: (src region, dst region, link type).
LinkId = Tuple[str, str, LinkType]
#: A walked hop: (src, dst, link type, via backup, deciding gateway).
Hop = Tuple[str, str, LinkType, bool, object]


@dataclass
class Window:
    packets_sent: int = 0
    packets_lost: int = 0
    latency_sum_ms: float = 0.0
    latency_samples: int = 0


class ScalarTracker:
    """One gateway's windows, one `Window` per link it booked."""

    def __init__(self):
        self.windows: Dict[LinkId, Window] = {}

    def record(self, link: LinkId, packets_sent: int, packets_lost: int,
               latency_ms: float) -> None:
        if packets_sent < 0 or packets_lost < 0 or packets_lost > packets_sent:
            raise ValueError(
                f"invalid packet counts sent={packets_sent} lost={packets_lost}")
        window = self.windows.get(link)
        if window is None:
            window = self.windows[link] = Window()
        window.packets_sent += packets_sent
        window.packets_lost += packets_lost
        if packets_sent > packets_lost:
            window.latency_sum_ms += latency_ms
            window.latency_samples += 1

    def flush(self) -> List[Tuple[LinkId, float, float, int]]:
        """(link, latency, loss rate, packets) per busy window; resets."""
        samples = []
        for link, window in self.windows.items():
            if window.packets_sent >= MIN_PACKETS:
                loss = window.packets_lost / window.packets_sent
                latency = (window.latency_sum_ms / window.latency_samples
                           if window.latency_samples else 0.0)
                samples.append((link, latency, loss, window.packets_sent))
        self.windows.clear()
        return samples


def forward(gateway, stream_id: int) -> Optional[Tuple[str, LinkType, bool]]:
    """The unarmed rule, by key: ``(next hop, link type, via backup)``,
    None for a stream without a row."""
    table = gateway.table
    row = table.rows.get(stream_id)
    if row is None:
        return None
    next_hop, link_type = row
    if (gateway.fast_reaction
            and gateway.bank.degraded[gateway.links[(next_hop, link_type)]]):
        relays = table.plans.get(stream_id)
        return (relays[0] if relays else next_hop, LinkType.PREMIUM, True)
    return next_hop, link_type, False


def resolve(cluster, stream_id: int):
    """(deciding gateway, decision) by the cluster's round robin."""
    ids = cluster.gateway_ids
    gateway = cluster.gateways[ids[cluster._rr_index % len(ids)]]
    cluster._rr_index += 1
    decision = forward(gateway, stream_id)
    return None if decision is None else (gateway, decision)


def walk(clusters, pair, stream_id: int) -> Optional[List[Hop]]:
    """Follow the live decisions from source to destination; None for a
    missing row or a loop (eight hops)."""
    src, dst = pair
    hops: List[Hop] = []
    current = src
    for __ in range(8):
        if current == dst:
            return hops
        resolved = resolve(clusters[current], stream_id)
        if resolved is None:
            return None
        gateway, (next_hop, link_type, via_backup) = resolved
        hops.append((current, next_hop, link_type, via_backup, gateway))
        current = next_hop
    return None


class ScalarTick:
    """The scalar tick and flush over `engine`'s clusters and sessions
    (an `EventDrivenXRON` the tick never runs itself), booking into its
    own windows: one `ScalarTracker` per live gateway."""

    def __init__(self, engine, packets: int):
        self.engine = engine
        self.packets = packets
        self.at = {hop: k for k, hop in enumerate(engine._passive.hops)}
        self.trackers: Dict[object, ScalarTracker] = {}

    def tracker(self, gateway) -> ScalarTracker:
        return self.trackers.setdefault(gateway, ScalarTracker())

    def measure(self, now: float) -> None:
        engine = self.engine
        latency_ms, loss_rate, __, lost = engine._passive.at(now)
        latency_ms, loss_rate, lost_packets = (
            latency_ms.tolist(), loss_rate.tolist(), lost[0].tolist())
        for pair, record in engine.sessions.items():
            sid = engine.session_stream[pair]
            if sid is None:
                continue
            hops = walk(engine.clusters, pair, sid)
            if hops is None:
                record.blackholed.append(now)
                continue
            latency = 0.0
            survive = 1.0
            on_backup = False
            for (a, b, lt, via_backup, gateway) in hops:
                k = self.at[(a, b, lt)]
                hop_lat = latency_ms[k]
                latency += hop_lat
                survive *= 1.0 - loss_rate[k]
                on_backup = on_backup or via_backup
                self.tracker(gateway).record((a, b, lt), self.packets,
                                             lost_packets[k], hop_lat)
            record.times.append(now)
            record.latency_ms.append(latency)
            record.loss_rate.append(1.0 - survive)
            record.on_backup.append(on_backup)
            record.hop_counts.append(len(hops))

    def flush(self, now: float) -> None:
        for cluster in self.engine.clusters.values():
            cluster_flush(cluster, self.tracker, now)

    def windows(self, gateway) -> Dict[str, np.ndarray]:
        """`gateway`'s open windows as `PassiveTracker` arrays."""
        arrays = {"packets_sent": np.zeros(len(gateway.links), np.int64),
                  "packets_lost": np.zeros(len(gateway.links), np.int64),
                  "latency_sum_ms": np.zeros(len(gateway.links)),
                  "latency_samples": np.zeros(len(gateway.links), np.int64)}
        for (src, dst, lt), window in self.tracker(gateway).windows.items():
            k = gateway.links[(dst, lt)]
            for name, array in arrays.items():
                array[k] = getattr(window, name)
        return arrays


def cluster_flush(cluster, tracker, now: float) -> None:
    """Fold every gateway's passive samples (``tracker(gateway)``'s
    windows) into its estimators, another region's links dropped.  The
    ingest is per gateway, into whatever stack its bank is a row of
    (the per-cluster ingest's updates are element-wise, so the bits are
    the same)."""
    for gateway in cluster._fleet:
        samples = [(gateway.links[link[1:]], latency, loss)
                   for link, latency, loss, __ in tracker(gateway).flush()
                   if link[0] == cluster.region]
        if samples:
            links, latency_ms, loss_rate = map(np.array, zip(*samples))
            gateway.bank.ingest(links, now, latency_ms, loss_rate)
