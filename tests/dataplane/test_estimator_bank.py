"""`EstimatorBank` and the cluster's array-state probing round against a
scalar, one-object-per-link reference, on generated histories.

The reference below is the per-link estimator the banks replaced, kept
here only as the oracle: a Hypothesis state machine drives a real
`RegionCluster` through random sequences of probing rounds (with a
random blackout mask), passive flushes, direct group-state adoptions
and fleet changes, replays every step on the reference — each
representative's bursts drawn link by link from the burst kernel, as
its probe slot and the burst number say — and demands `==` on every
link's full state after every step.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.dataplane.cluster import RegionCluster
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.probing import burst_draws, link_seed
from repro.faults.runtime import FaultCounters
from repro.sim.rng import RngStreams
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.snapshot import TYPE_ORDER
from repro.underlay.topology import build_underlay

REGION = "HGH"
UNDERLAY = build_underlay(default_regions()[:3],
                          UnderlayConfig(horizon_s=3600.0), seed=5)
#: The region's adjacent links in monitoring order.
LINK_KEYS = [(dst, lt) for dst in UNDERLAY.codes if dst != REGION
             for lt in TYPE_ORDER]
LINKS = len(LINK_KEYS)
#: The seeds a cluster built on its own draws its probe slots from.
STREAMS = RngStreams(0)


class ScalarEstimator:
    """One link's EWMA + hysteresis, one Python object: the reference."""

    def __init__(self, alpha, reaction):
        self.alpha, self.reaction = alpha, reaction
        self.latency_ms = self.loss_rate = self.last_update = None
        self.bad_run = self.good_run = self.degradation_count = 0
        self.degraded = False

    def ingest(self, time, latency_ms, loss_rate):
        if self.latency_ms is None:
            self.latency_ms, self.loss_rate = latency_ms, loss_rate
        else:
            self.latency_ms += self.alpha * (latency_ms - self.latency_ms)
            self.loss_rate += self.alpha * (loss_rate - self.loss_rate)
        self.last_update = time
        r = self.reaction
        if (latency_ms > r.latency_threshold_ms
                or loss_rate >= r.loss_threshold
                or self.loss_rate >= r.ewma_loss_threshold):
            self.bad_run += 1
            self.good_run = 0
            if not self.degraded and self.bad_run >= r.trigger_bursts:
                self.degraded = True
                self.degradation_count += 1
        else:
            self.good_run += 1
            self.bad_run = 0
            if self.degraded and self.good_run >= r.recover_bursts:
                self.degraded = False

    def apply_group_state(self, time, latency_ms, loss_rate, degraded):
        self.latency_ms, self.loss_rate = latency_ms, loss_rate
        self.last_update = time
        if degraded and not self.degraded:
            self.degradation_count += 1
        self.degraded = degraded
        self.bad_run = self.good_run = 0

    def state(self):
        return (self.latency_ms, self.loss_rate, self.bad_run, self.good_run,
                self.degraded, self.degradation_count, self.last_update)


def scalar_median(values):
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2.0


def bank_state(gateway, k):
    """Link `k` of a gateway's bank, in `ScalarEstimator.state` form."""
    bank = gateway.bank
    sampled = [None if np.isnan(x) else float(x) for x in (
        bank.latency_ms[k], bank.loss_rate[k], bank.last_update[k])]
    return (sampled[0], sampled[1], int(bank.bad_run[k]),
            int(bank.good_run[k]), bool(bank.degraded[k]),
            int(bank.degradation_count[k]), sampled[2])


class Blackouts:
    """The block's fault seam, hiding the link positions in `hidden`."""

    def __init__(self, positions):
        self.positions, self.hidden = positions, set()
        self.counters = FaultCounters()

    def probe_blackout(self, hops, now):
        return {k: "spec" for k, (__, dst, link_type) in enumerate(hops)
                if self.positions[(dst, link_type)] in self.hidden}

    def fault_id(self, spec):
        return 0


link_sets = st.sets(st.integers(0, LINKS - 1))
latencies = st.one_of(st.floats(0.0, 2000.0), st.sampled_from([0.0, 60.0]))


class ClusterAgainstScalarReference(RuleBasedStateMachine):
    representatives = 2

    @initialize(gateways=st.integers(1, 4),
                threshold_link=st.integers(0, LINKS - 1))
    def build(self, gateways, threshold_link):
        self.now = 100.0
        # The latency bound sits on one link's true latency, so the
        # measurement jitter alone flips that link between good and bad;
        # one lost packet of a burst is a bad burst.
        self.reaction = ReactionConfig(
            latency_threshold_ms=UNDERLAY.snapshot(self.now).lookup(
                REGION, *LINK_KEYS[threshold_link])[0],
            loss_threshold=1.0 / 15.0, trigger_bursts=2, recover_bursts=3)
        self.monitoring = MonitoringConfig(
            representatives=self.representatives)
        self.cluster = RegionCluster(
            REGION, UNDERLAY, initial_gateways=gateways,
            monitoring=self.monitoring, reaction=self.reaction)
        self.links = next(iter(self.cluster.gateways.values())).links
        assert list(self.links) == LINK_KEYS
        self.cluster.block.faults = self.blackouts = Blackouts(self.links)
        self.reference = {gid: self.fresh() for gid in self.cluster.gateways}

    def fresh(self):
        return [ScalarEstimator(self.monitoring.ewma_alpha, self.reaction)
                for __ in range(LINKS)]

    def follow_fleet(self):
        """New gateways start fresh, departed ones are forgotten."""
        self.reference = {
            gid: self.reference.get(gid) or self.fresh()
            for gid in self.cluster.gateways}

    # ---------------------------------------------------------------- steps
    @rule(hidden=link_sets)
    def probing_round(self, hidden):
        self.now += 0.4
        now = self.now
        self.blackouts.hidden = hidden
        blacked_out = self.blackouts.counters.probes_blacked_out
        reports = self.cluster.probe_round(now)
        assert (self.blackouts.counters.probes_blacked_out
                == blacked_out + len(hidden))

        ids = sorted(self.reference)
        reps = ids[:self.representatives]
        state = UNDERLAY.snapshot(now)
        burst = round(now / self.monitoring.burst_interval_s)
        packets = self.monitoring.packets_per_burst
        expected = []
        for (dst, lt), k in self.links.items():
            if k in hidden:
                continue
            true_latency, true_loss = state.lookup(REGION, dst, lt)
            for slot, gid in enumerate(reps):
                jitter, lost = burst_draws(
                    link_seed(STREAMS, "probe", (REGION, dst, lt), slot),
                    burst, true_loss, packets)
                self.reference[gid][k].ingest(
                    now, true_latency * float(jitter), int(lost) / packets)
            estimators = [self.reference[gid][k] for gid in reps]
            latency = scalar_median([e.latency_ms for e in estimators])
            loss = min(max(scalar_median(
                [e.loss_rate for e in estimators]), 0.0), 1.0)
            degraded = sum(e.degraded for e in estimators) * 2 > len(reps)
            for gid in ids[self.representatives:]:
                self.reference[gid][k].apply_group_state(
                    now, latency, loss, degraded)
            expected.append((REGION, dst, lt, latency, loss, now))
        assert len(reports) == len(expected) and bool(reports) == bool(expected)
        assert [(r.src, r.dst, r.link_type, r.latency_ms, r.loss_rate,
                 r.reported_at) for r in reports] == expected

    @rule(gateway=st.integers(0, 10),
          samples=st.dictionaries(
              st.integers(0, LINKS - 1),
              st.tuples(latencies, st.integers(0, 100)), max_size=LINKS))
    def passive_flush(self, gateway, samples):
        self.now += 0.1
        ids = sorted(self.reference)
        gid = ids[gateway % len(ids)]
        tracker = self.cluster.gateways[gid].passive
        positions = {k: key for key, k in self.links.items()}
        for k, (latency, lost) in samples.items():
            tracker.record((REGION,) + positions[k], 100, lost, latency)
            self.reference[gid][k].ingest(
                self.now, latency if lost < 100 else 0.0, lost / 100)
        # Another region's link in the window must be ignored.
        tracker.record(("SIN", "FRA", positions[0][1]), 100, 50, 10.0)
        self.cluster.flush_passive(self.now)

    @rule(gateway=st.integers(0, 10), k=st.integers(0, LINKS - 1),
          latency=latencies, loss=st.floats(0.0, 1.0),
          degraded=st.booleans())
    def group_state_adoption(self, gateway, k, latency, loss, degraded):
        ids = sorted(self.reference)
        gid = ids[gateway % len(ids)]
        self.cluster.gateways[gid].bank.adopt(k, self.now, latency, loss,
                                              np.bool_(degraded))
        self.reference[gid][k].apply_group_state(self.now, latency, loss,
                                                 degraded)

    @rule(size=st.integers(1, 5))
    def scale(self, size):
        self.cluster.scale_to(size)
        self.follow_fleet()

    @rule(count=st.integers(1, 3))
    def crash_and_restart(self, count):
        victims = self.cluster.crash_gateways(count)
        self.follow_fleet()
        self.cluster.restore_gateways(len(victims) // 2)
        self.follow_fleet()

    # ----------------------------------------------------------- the check
    @invariant()
    def every_link_of_every_gateway_equals_the_reference(self):
        if not hasattr(self, "cluster"):
            return
        assert sorted(self.cluster.gateways) == sorted(self.reference)
        for gid, gateway in self.cluster.gateways.items():
            for (dst, lt), k in self.links.items():
                want = self.reference[gid][k]
                assert bank_state(gateway, k) == want.state(), (gid, dst, lt)
                estimator = gateway.estimator(dst, lt)
                assert (estimator.latency_ms, estimator.loss_rate,
                        estimator.degraded, estimator.degradation_count,
                        estimator.last_update) == (
                    want.latency_ms, want.loss_rate, want.degraded,
                    want.degradation_count, want.last_update)
                assert gateway.link_degraded(dst, lt) == want.degraded
        reps = sorted(self.reference)[:self.representatives]
        assert self.cluster.degradation_detections() == sum(
            e.degradation_count for gid in reps for e in self.reference[gid])


def machine(representatives):
    case = type(f"Representatives{representatives}",
                (ClusterAgainstScalarReference,),
                {"representatives": representatives}).TestCase
    case.settings = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
    return case


# Odd and even medians, and the one-representative degenerate case.
TestOneRepresentative = machine(1)
TestTwoRepresentatives = machine(2)
TestThreeRepresentatives = machine(3)


def test_the_history_machine_sees_detections_and_recoveries():
    """The generated histories are only worth something if links do go
    degraded and come back in them: a fixed walk of the same steps."""
    steps = ClusterAgainstScalarReference()
    steps.build(gateways=3, threshold_link=0)
    counts = []
    for __ in range(60):
        steps.probing_round(hidden=set())
        steps.every_link_of_every_gateway_equals_the_reference()
        counts.append(sum(e.degraded for estimators
                          in steps.reference.values()
                          for e in estimators))
    assert max(counts) > 0
    assert any(b < a for a, b in zip(counts, counts[1:]))
    assert steps.cluster.degradation_detections() > 0
