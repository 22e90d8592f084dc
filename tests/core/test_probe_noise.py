"""One probe-noise definition for both engines.

A monitoring draw is a hash of what is measured (a link), by which probe
slot and at which burst: so what a cluster's representatives measure at
an instant cannot depend on anything that happened before it, and the
grid engine's burst series of a hop is the event engine's first
representative probing that hop at the same instants.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import simulator as grid
from repro.core.config import SimulationConfig
from repro.core.system import XRONSystem
from repro.core.variants import xron
from repro.dataplane.cluster import RegionCluster, probe_noise
from repro.dataplane.config import MonitoringConfig
from repro.dataplane.estimator import EstimatorBank
from repro.faults.runtime import FaultCounters
from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.snapshot import TYPE_ORDER
from repro.underlay.topology import build_underlay

UNDERLAY = build_underlay(default_regions()[:4],
                          UnderlayConfig(horizon_s=3600.0), seed=9)
MONITORING = MonitoringConfig(representatives=3)
LINKS = 2 * (len(UNDERLAY.codes) - 1)
T_END = 600.0


class Blackouts:
    """A block's fault seam hiding the link positions in `hidden`."""

    def __init__(self, links):
        self.links, self.hidden = links, set()
        self.counters = FaultCounters()

    def probe_blackout(self, codes, src, dst, tier, now):
        return {k: "spec" for k, (j, t) in enumerate(zip(dst.tolist(),
                                                         tier.tolist()))
                if self.links[(codes[j], TYPE_ORDER[t])] in self.hidden}

    def fault_id(self, spec):
        return 0


def clusters(seed, gateways=2):
    noise = probe_noise(UNDERLAY, MONITORING, RngStreams(seed))
    return {code: RegionCluster(code, UNDERLAY, initial_gateways=gateways,
                                monitoring=MONITORING, noise=noise)
            for code in UNDERLAY.codes}


def round_draws(cluster, now):
    """What `cluster`'s representatives take in at `now`: measured
    latency and loss of the links probed, representative by
    representative (one row each while no link is blacked out)."""
    seen = []
    ingest = EstimatorBank.ingest

    def recording(bank, links, time, latency_ms, loss_rate):
        seen.append((np.array(latency_ms), np.array(loss_rate)))
        return ingest(bank, links, time, latency_ms, loss_rate)
    EstimatorBank.ingest = recording
    try:
        cluster.probe_round(now)
    finally:
        EstimatorBank.ingest = ingest
    (latency, loss), = seen
    return latency, loss


steps = st.lists(st.one_of(
    st.tuples(st.just("probe"), st.integers(0, 3)),
    st.tuples(st.just("crash"), st.integers(1, 3)),
    st.tuples(st.just("restore"), st.integers(1, 3)),
    st.tuples(st.just("scale"), st.integers(1, 5)),
    st.tuples(st.just("blackout"), st.sets(st.integers(0, LINKS - 1)))),
    max_size=25)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), history=steps,
       target=st.integers(0, 3), others_first=st.booleans())
def test_a_clusters_draws_at_an_instant_do_not_depend_on_history(
        seed, history, target, others_first):
    """Any history — other clusters probing or not, crashes, scale-ups
    and -downs, restores, blackouts, earlier rounds — leaves the k-th
    representative measuring the k-th slot's burst on every link it
    probes at instant t."""
    lived = clusters(seed)
    code = UNDERLAY.codes[target]
    blackouts = Blackouts(lived[code].links)
    lived[code].block.faults = blackouts
    now = 100.0
    for action, arg in history:
        now += 0.4
        if action == "probe":
            lived[UNDERLAY.codes[arg]].probe_round(now)
        elif action == "crash":
            lived[code].crash_gateways(arg, now)
        elif action == "restore":
            lived[code].restore_gateways(arg, now)
        elif action == "scale":
            lived[code].scale_to(arg)
        else:
            blackouts.hidden = arg
    if others_first:
        for other in UNDERLAY.codes:
            if other != code:
                lived[other].probe_round(T_END)
    latency, loss = round_draws(lived[code], T_END)

    fresh = clusters(seed, gateways=MONITORING.representatives)[code]
    want_latency, want_loss = round_draws(fresh, T_END)
    probed = [k for k in range(LINKS) if k not in blackouts.hidden]
    reps = len(lived[code].representatives())
    np.testing.assert_array_equal(latency.reshape(reps, -1),
                                  want_latency[:reps, probed])
    np.testing.assert_array_equal(loss.reshape(reps, -1),
                                  want_loss[:reps, probed])


def test_both_engines_read_a_hop_the_same(monkeypatch):
    """The grid engine's bursts of a hop over an epoch are the event
    engine's slot-0 bursts on that link at the same instants (same
    world, same seed) — bit for bit, latency and lost packets."""
    system = XRONSystem(regions=default_regions()[:4], seed=4,
                        underlay_config=UnderlayConfig(horizon_s=3 * 3600.0),
                        sim_config=SimulationConfig(seed=21))
    engine = system.event_engine(xron())
    simulator = system.simulator(xron())
    config = simulator.sim_config
    noise = engine.clusters[system.underlay.codes[0]].noise
    hops = noise.hops[::3]
    captured = []
    series = grid.burst_series

    def capture(*args):
        captured.append(series(*args))
        return captured[-1]
    monkeypatch.setattr(grid, "burst_series", capture)
    t0 = 2 * 3600.0 + 7 * config.epoch_s
    cache = grid._EpochLinkCache(
        system.underlay, t0, t0 + config.epoch_s, config.eval_step_s,
        config.monitoring, config.reaction, simulator._probe_seed)
    cache.fill(hops)
    (times, latency, loss), = captured
    assert latency.shape == (len(hops), 750)

    columns = [noise.hops.index(hop) for hop in hops]
    packets = config.monitoring.packets_per_burst
    event_latency, event_loss = (np.empty_like(latency),
                                 np.empty_like(loss))
    for b, t in enumerate(times.tolist()):
        true_latency, __, jitter, lost = noise.at(t)
        event_latency[:, b] = true_latency[columns] * jitter[0, columns]
        event_loss[:, b] = lost[0, columns] / packets
    np.testing.assert_array_equal(latency, event_latency)
    np.testing.assert_array_equal(loss, event_loss)
    assert event_loss.any()
    engine.close()
    simulator.close()
