"""The per-cluster probing round, kept as the oracle of the monitoring
block (`repro.dataplane.cluster.MonitoringBlock`).

Before the block every region cluster ran its own round over its own
``(gateways, links)`` stack of its gateways' banks: one blackout query
per link, one ingest, one median over the representative axis, one
hand-over to the members, one `ReportBatch`.  `cluster_round` is that
body, over a stack it makes of the cluster's fleet on each call (the
gateways' banks become its rows, as they did then), and `cluster_flush`
is the passive flush of the same stack.  The blackout query is the
scalar one the injector answered per link: the first probe-blackout
spec of the schedule, in its order, active at `now` and matching the
link.
"""

from typing import Optional, Tuple

import numpy as np

from repro.controlplane.nib import ReportBatch
from repro.dataplane.estimator import EstimatorBank
from repro.dataplane.probing import burst_bytes
from repro.faults.spec import FaultKind, FaultSchedule


def _stack(cluster) -> EstimatorBank:
    return EstimatorBank.stacked([gateway.bank for gateway in cluster._fleet])


def blackout(schedule: FaultSchedule, src, dst, link_type, now):
    """The blackout spec covering one directed link at `now`, or None."""
    for spec in schedule.by_kind(FaultKind.PROBE_BLACKOUT):
        if spec.active(now) and spec.matches_link(src, dst, link_type):
            return spec
    return None


def cluster_round(cluster, now: float,
                  schedule: Optional[FaultSchedule] = None
                  ) -> Tuple[ReportBatch, int]:
    """One group-probing round of `cluster` alone: its reports and the
    number of its links blacked out."""
    bank = _stack(cluster)
    reps = cluster.representatives()
    noise, monitoring = cluster.noise, cluster.monitoring
    span = noise.span(cluster.region)
    links, index = slice(None), tuple(axis[span] for axis in noise.index)
    blacked = []
    if schedule is not None:
        for k, (src, dst, link_type) in enumerate(noise.hops[span]):
            if blackout(schedule, src, dst, link_type, now) is not None:
                blacked.append(k)
        if blacked:
            links = np.array([k for k in range(len(cluster.links))
                              if k not in blacked], dtype=np.intp)
            index = tuple(axis[links] for axis in index)
    latency, __, jitter, lost = noise.at(now)
    run = (slice(len(reps)), span)
    lost = lost[run][:, links]
    measured = latency[span][links] * jitter[run][:, links]
    nbytes = burst_bytes(lost, monitoring) // len(reps)
    for rep in reps:
        rep.probe_bytes_sent += nbytes
    probed = (slice(len(reps)), links)
    bank.ingest(probed, now, measured, lost / monitoring.packets_per_burst)
    tier, src, dst = index
    reports = cluster._grouping.aggregate(
        src, dst, tier,
        [(slice(None), bank.latency_ms[probed], bank.loss_rate[probed])], now)
    # Strict majority of representatives (median semantics); no vote to
    # count while no representative flags any link.
    flagged = bank.degraded[probed]
    degraded = (flagged.sum(axis=0) * 2 > len(reps) if flagged.any()
                else flagged[0])
    if len(cluster.gateways) > len(reps):
        bank.adopt((slice(len(reps), None), links), now,
                   reports.latency_ms, reports.loss_rate, degraded)
    return reports, len(blacked)


def cluster_flush(cluster, now: float) -> None:
    """Fold every gateway's passive samples into its estimators."""
    bank = _stack(cluster)
    rows, links, latency_ms, loss_rate = [], [], [], []
    for row, gateway in enumerate(cluster._fleet):
        sampled = gateway.passive_samples(now)
        rows += [row] * len(sampled[0])
        links += sampled[0]
        latency_ms += sampled[1]
        loss_rate += sampled[2]
    if rows:
        bank.ingest((np.array(rows), np.array(links)), now,
                    np.array(latency_ms), np.array(loss_rate))
