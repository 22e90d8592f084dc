"""The monitoring block against the per-cluster round it replaced.

One `MonitoringBlock` probes every region of a deployment in one array
pass; `tests/dataplane/probe_oracle.py` keeps the round each cluster
used to run on its own.  Two deployments of the same world — one
driven through the block, one cluster by cluster through the oracle —
go through the same generated history: ragged fleets (one to six
gateways a region, so regions elect different representative counts),
crashes, restores and scaling between instants, blackout windows and
passive flushes.  After every step the bank arrays of every gateway,
the reports, the probe bytes, the detections and the blacked-out link
count must be bit-equal.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dataplane.cluster import MonitoringBlock, RegionCluster, probe_noise
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import _STATE
from repro.faults import FaultSchedule, probe_blackout
from repro.faults.runtime import FaultInjector
from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.snapshot import TYPE_ORDER
from repro.underlay.topology import build_underlay
from tests.dataplane.probe_oracle import cluster_flush, cluster_round

UNDERLAY = build_underlay(default_regions()[:4],
                          UnderlayConfig(horizon_s=3600.0), seed=11)
CODES = UNDERLAY.codes
LINKS = 2 * (len(CODES) - 1)
T0 = 100.0


def deployment(seed, representatives, fleet, reaction, schedule, block):
    """One cluster per region on a shared noise; under one block (and
    its fault seam) if `block`, else each alone."""
    monitoring = MonitoringConfig(representatives=representatives)
    noise = probe_noise(UNDERLAY, monitoring, RngStreams(seed))
    clusters = [RegionCluster(code, UNDERLAY, initial_gateways=size,
                              monitoring=monitoring, reaction=reaction,
                              noise=noise)
                for code, size in zip(CODES, fleet)]
    if block:
        MonitoringBlock(clusters).faults = FaultInjector(schedule)
    return clusters


codes = st.sampled_from(CODES)
blackouts = st.lists(st.builds(
    lambda start, length, region, dst, link_type: probe_blackout(
        T0 + start, length, region=region, dst=dst, link_type=link_type),
    st.floats(0.0, 8.0), st.floats(0.4, 4.0), st.none() | codes,
    st.none() | codes, st.sampled_from([None, LinkType.INTERNET,
                                        LinkType.PREMIUM])), max_size=3)
samples = st.lists(st.tuples(st.integers(0, LINKS - 1),
                             st.floats(0.0, 400.0), st.integers(0, 60)),
                   max_size=4)
steps = st.lists(st.one_of(
    st.tuples(st.just("probe"), st.integers(1, 3)),
    st.tuples(st.just("crash"), codes, st.integers(1, 4)),
    st.tuples(st.just("restore"), codes, st.integers(1, 3)),
    st.tuples(st.just("scale"), codes, st.integers(1, 6)),
    st.tuples(st.just("passive"), codes, st.integers(0, 9), samples)),
    max_size=24)


def assert_same_state(blocked, alone):
    for a, b in zip(blocked, alone):
        assert sorted(a.gateways) == sorted(b.gateways)
        for gid, gateway in a.gateways.items():
            twin = b.gateways[gid]
            for name in _STATE:
                assert (getattr(gateway.bank, name).tobytes()
                        == getattr(twin.bank, name).tobytes()), (
                    a.region, gid, name)
            assert gateway.probe_bytes_sent == twin.probe_bytes_sent
        assert a.degradation_detections() == b.degradation_detections()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), representatives=st.integers(1, 3),
       fleet=st.lists(st.integers(1, 6), min_size=len(CODES),
                      max_size=len(CODES)),
       threshold=st.integers(0, LINKS - 1), schedule=blackouts,
       history=steps)
def test_the_block_is_every_cluster_round_at_once(
        seed, representatives, fleet, threshold, schedule, history):
    # The latency bound sits on one link's true latency, so jitter alone
    # flips it between good and bad; a lost packet is a bad burst.
    dst, link_type = [(dst, link_type) for dst in CODES[1:]
                      for link_type in TYPE_ORDER][threshold]
    reaction = ReactionConfig(
        latency_threshold_ms=UNDERLAY.snapshot(T0).lookup(
            CODES[0], dst, link_type)[0],
        loss_threshold=1.0 / 15.0, trigger_bursts=2, recover_bursts=3)
    schedule = FaultSchedule.of(*schedule)
    blocked = deployment(seed, representatives, fleet, reaction, schedule,
                         block=True)
    alone = deployment(seed, representatives, fleet, reaction, schedule,
                       block=False)
    block = blocked[0].block
    blacked = 0
    now = T0
    for step in [("probe", 2)] + history:
        action = step[0]
        if action == "probe":
            for __ in range(step[1]):
                now += 0.4
                reports, bounds = block.probe(now)
                expected = []
                for cluster in alone:
                    batch, hidden = cluster_round(cluster, now, schedule)
                    expected.append(batch)
                    blacked += hidden
                assert bounds == [0] + np.cumsum(
                    [len(batch) for batch in expected]).tolist()
                for name in ("src", "dst", "tier", "latency_ms",
                             "loss_rate", "reported_at"):
                    assert (getattr(reports, name).tobytes() == np.concatenate(
                        [getattr(batch, name) for batch in expected]
                    ).tobytes()), name
                assert block.faults.counters.probes_blacked_out == blacked
        elif action == "passive":
            __, code, pick, drawn = step
            now += 0.1
            k = CODES.index(code)
            for clusters in (blocked, alone):
                cluster = clusters[k]
                gateway = cluster.gateways[sorted(cluster.gateways)[
                    pick % cluster.size]]
                keys = {position: key for key, position in
                        gateway.links.items()}
                for link, latency, lost in drawn:
                    gateway.passive.record((code,) + keys[link], 60, lost,
                                           latency)
            for cluster in blocked:
                cluster.flush_passive(now)
            for cluster in alone:
                cluster_flush(cluster, now)
        else:
            __, code, count = step
            k = CODES.index(code)
            for clusters in (blocked, alone):
                if action == "crash":
                    clusters[k].crash_gateways(count)
                elif action == "restore":
                    clusters[k].restore_gateways(count)
                else:
                    clusters[k].scale_to(count)
        assert_same_state(blocked, alone)


def test_a_ragged_deployment_detects_and_blacks_out():
    """The generated histories reach what they are meant to: regions of
    different representative counts in one instant, detections, and a
    blackout that hides a region's links from the reports."""
    reaction = ReactionConfig(
        latency_threshold_ms=UNDERLAY.snapshot(T0).lookup(
            CODES[0], CODES[1], LinkType.INTERNET)[0],
        loss_threshold=1.0 / 15.0, trigger_bursts=2, recover_bursts=3)
    schedule = FaultSchedule.of(probe_blackout(T0 + 2.0, 2.0,
                                               region=CODES[2]))
    blocked = deployment(5, 3, [1, 2, 3, 6], reaction, schedule, block=True)
    block = blocked[0].block
    lengths = set()
    for step in range(1, 40):
        reports, bounds = block.probe(T0 + 0.4 * step)
        lengths.add(tuple(np.diff(bounds).tolist()))
    assert block.reps.tolist() == [1, 2, 3, 3]
    assert (LINKS,) * 4 in lengths and (LINKS, LINKS, 0, LINKS) in lengths
    assert sum(cluster.degradation_detections() for cluster in blocked) > 0
