"""A region holds one forwarding table: a real `RegionCluster` against a
thirty-line model (a dict of rows, a dict of plans, a version, a time),
on generated histories.

A Hypothesis state machine installs updates whose version is drawn
fresh, equal, stale or absent, scales the fleet, crashes and restarts
gateways, flips their degradation verdicts and forwards streams — and
after every step demands that every gateway is bound to the cluster's
one `ForwardingTable`, that the table is the newest accepted install
(a refused one changed nothing), that every gateway, however recently
born, forwards and fast-reacts every stream the way the model says, and
that degraded-mode demotions are counted once per gateway, stream and
accepted install.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.dataplane.cluster import RegionCluster
from repro.dataplane.gateway import ForwardDecision
from repro.resilience import ResilienceConfig
from repro.resilience.install import ResilienceCounters
from repro.underlay.config import UnderlayConfig
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.topology import build_underlay

I, P = LinkType.INTERNET, LinkType.PREMIUM
REGION = "HGH"
UNDERLAY = build_underlay(default_regions()[:3],
                          UnderlayConfig(horizon_s=3600.0), seed=5)
OTHERS = [code for code in UNDERLAY.codes if code != REGION]
STREAMS = range(6)
#: Degraded-mode staleness threshold; hold-down is off so a decision
#: depends on the table, the verdicts and the clock only.
STALE_S = 90.0
RESILIENCE = ResilienceConfig(hysteresis_enabled=False)

rows = st.dictionaries(st.sampled_from(STREAMS), st.tuples(
    st.sampled_from(OTHERS), st.sampled_from([I, I, P])), max_size=6)
plans = st.dictionaries(st.sampled_from(STREAMS), st.lists(
    st.sampled_from(OTHERS), max_size=2).map(tuple), max_size=6)


class RegionModel:
    """What a region should hold: its newest accepted install."""

    def __init__(self):
        self.rows, self.plans, self.version, self.at = {}, {}, None, None
        self.accepted = 0
        #: (gateway, stream, accepted install) demotions, each once.
        self.demoted = set()

    def install(self, rows, plans, version, now):
        if (version is not None and self.version is not None
                and version < self.version):
            return False
        self.rows, self.plans, self.at = dict(rows), dict(plans), now
        if version is not None:
            self.version = version
        self.accepted += 1
        return True

    def decide(self, gid, sid, flagged, now):
        if sid not in self.rows:
            return None
        hop, tier = self.rows[sid]
        if (hop, tier) in flagged:
            relays = self.plans.get(sid)
            return ForwardDecision(relays[0] if relays else hop, P, True)
        if self.at is not None and now - self.at > STALE_S and tier is I:
            self.demoted.add((gid, sid, self.accepted))
            return ForwardDecision(hop, P, False, degraded_mode=True)
        return ForwardDecision(hop, tier, False)


class ClusterAgainstRegionModel(RuleBasedStateMachine):
    @initialize(gateways=st.integers(1, 4))
    def build(self, gateways):
        self.now = 100.0
        self.cluster = RegionCluster(REGION, UNDERLAY,
                                     initial_gateways=gateways)
        self.counters = ResilienceCounters()
        self.cluster.arm_resilience(RESILIENCE, self.counters, STALE_S)
        self.model = RegionModel()
        #: gateway id -> the links its own monitoring flags degraded.
        self.flagged = {gid: set() for gid in self.cluster.gateways}

    def follow_fleet(self):
        """New gateways flag nothing, departed ones are forgotten."""
        self.flagged = {gid: self.flagged.get(gid, set())
                        for gid in self.cluster.gateways}

    def pick(self, gateway):
        ids = sorted(self.cluster.gateways)
        return ids[gateway % len(ids)]

    # ---------------------------------------------------------------- steps
    @rule(rows=rows, plans=plans,
          version=st.sampled_from(["fresh", "equal", "stale", None]),
          dt=st.floats(0.0, 30.0))
    def install(self, rows, plans, version, dt):
        self.now += dt
        if version is not None:
            version = (self.model.version or 0) + {
                "fresh": 1, "equal": 0, "stale": -1}[version]
        accepted = self.cluster.install(rows, plans, version=version,
                                        now=self.now)
        assert accepted == self.model.install(rows, plans, version, self.now)

    @rule(size=st.integers(1, 5))
    def scale(self, size):
        self.cluster.scale_to(size)
        self.follow_fleet()

    @rule(count=st.integers(1, 3))
    def crash(self, count):
        self.cluster.crash_gateways(count, self.now)
        self.follow_fleet()

    @rule(count=st.integers(1, 2))
    def restore(self, count):
        self.cluster.restore_gateways(count, self.now)
        self.follow_fleet()

    @rule(gateway=st.integers(0, 10), dst=st.sampled_from(OTHERS),
          tier=st.sampled_from([I, P]), degraded=st.booleans())
    def verdict(self, gateway, dst, tier, degraded):
        gid = self.pick(gateway)
        gateway = self.cluster.gateways[gid]
        gateway.bank.adopt(gateway.links[(dst, tier)], self.now, 10.0, 0.0,
                           np.bool_(degraded))
        (self.flagged[gid].add if degraded
         else self.flagged[gid].discard)((dst, tier))

    @rule(dt=st.sampled_from([0.0, 0.5 * STALE_S, 2 * STALE_S]))
    def forward(self, dt):
        """Every gateway forwards every stream at a (maybe stale) time."""
        self.now += dt
        for gid, gateway in self.cluster.gateways.items():
            for sid in STREAMS:
                assert gateway.forward(sid, self.now) == self.model.decide(
                    gid, sid, self.flagged[gid], self.now), (gid, sid)

    @rule(sid=st.sampled_from(STREAMS))
    def resolve(self, sid):
        resolved = self.cluster.resolve(sid, self.now)
        if sid not in self.model.rows:
            assert resolved is None
            return
        gid = resolved[0].gateway_id
        assert resolved[1] == self.model.decide(gid, sid, self.flagged[gid],
                                                self.now)

    # ----------------------------------------------------------- the checks
    @invariant()
    def the_region_holds_the_newest_accepted_install(self):
        if not hasattr(self, "cluster"):
            return
        table, model = self.cluster.table, self.model
        assert all(gateway.table is table
                   for gateway in self.cluster.gateways.values())
        assert (table.rows, table.plans) == (model.rows, model.plans)
        assert (table.installed_version, table.installed_at) == (
            model.version, model.at)
        assert self.cluster.current_entries() == model.rows
        assert self.cluster.current_entries() is not table.rows
        assert self.cluster.current_plans() == model.plans
        assert self.cluster.current_plans() is not table.plans

    @invariant()
    def every_gateway_forwards_and_reacts_like_the_model(self):
        if not hasattr(self, "cluster"):
            return
        # At the newest install's own instant: the decision from table
        # and verdicts alone, which neither demotes nor counts anything.
        at = self.now if self.model.at is None else self.model.at
        for gid, gateway in self.cluster.gateways.items():
            for sid in STREAMS:
                assert gateway.forward(sid, at) == self.model.decide(
                    gid, sid, self.flagged[gid], at), (gid, sid)

    @invariant()
    def demotions_count_once_per_gateway_stream_and_install(self):
        if hasattr(self, "cluster"):
            assert self.counters.degraded_demotions == len(self.model.demoted)


TestClusterAgainstRegionModel = ClusterAgainstRegionModel.TestCase
TestClusterAgainstRegionModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)


def test_the_machine_sees_refusals_redemotions_and_newborn_reactions():
    """The generated histories are only worth something if they refuse
    installs, demote the same stream again under a newer table and make
    a newborn gateway fast-react: a fixed walk through the same steps."""
    steps = ClusterAgainstRegionModel()

    def check():
        steps.the_region_holds_the_newest_accepted_install()
        steps.every_gateway_forwards_and_reacts_like_the_model()
        steps.demotions_count_once_per_gateway_stream_and_install()

    steps.build(gateways=2)
    table = {0: (OTHERS[0], I), 1: (OTHERS[1], P)}
    steps.install(table, {0: (OTHERS[1],)}, "fresh", 0.0)
    steps.forward(2 * STALE_S)
    check()
    assert steps.counters.degraded_demotions == 2   # stream 0, two gateways
    steps.install({}, {}, "stale", 1.0)             # refused: nothing moves
    steps.forward(0.0)
    check()
    assert steps.model.accepted == 1
    assert steps.counters.degraded_demotions == 2
    steps.install(table, {0: (OTHERS[1],)}, "equal", 1.0)
    steps.forward(2 * STALE_S)
    check()
    assert steps.counters.degraded_demotions == 4   # counted again
    steps.scale(3)
    steps.restore(1)
    newborn = max(steps.cluster.gateways)
    steps.verdict(sorted(steps.cluster.gateways).index(newborn),
                  OTHERS[0], I, True)
    check()
    assert steps.cluster.gateways[newborn].forward(
        0, steps.now) == ForwardDecision(OTHERS[1], P, True)
    steps.forward(0.0)
    check()
    assert steps.counters.degraded_demotions == 5   # the unflagged newborn
