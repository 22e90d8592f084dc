"""The columnar measurement tick and passive flush against the scalar
ones they replaced (`tests/dataplane/passive_oracle.py`).

Two engines of one world go through one generated history: ragged
fleets that scale, crash and restore between ticks; probing instants
whose representatives, and adopted per-gateway flags, disagree on a
link's degraded flag inside one region; installs whose rows may be
missing or loop and whose plans may be absent; sessions bound and
unbound.  One engine runs its own `_measure` and `_flush_passive`; the
other's clusters are walked, booked and flushed by the oracle.  After
every step every live gateway's open windows and bank state, every
round-robin cursor and every session record must be bit-equal.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import eventsim
from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.dataplane.estimator import _STATE
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.snapshot import TYPE_ORDER
from repro.underlay.topology import build_underlay
from tests.dataplane import passive_oracle as oracle

UNDERLAY = build_underlay(default_regions()[:4],
                          UnderlayConfig(horizon_s=3600.0), seed=11)
DEMAND = DemandModel(UNDERLAY.regions, seed=3)
CODES = UNDERLAY.codes
PAIRS = list(UNDERLAY.pairs)
LINKS = 2 * (len(CODES) - 1)
STREAMS = 5
T0 = 100.0


def engine(seed, representatives, fleet, threshold):
    """A deployment whose probes flip one link's flag on jitter alone
    (its latency bound sits on the link's true latency), every region
    scaled to its `fleet` size."""
    src, dst, link_type = [(CODES[0], dst, link_type) for dst in CODES[1:]
                           for link_type in TYPE_ORDER][threshold]
    reaction = ReactionConfig(
        latency_threshold_ms=UNDERLAY.snapshot(T0).lookup(
            src, dst, link_type)[0],
        loss_threshold=1.0 / 15.0, trigger_bursts=1, recover_bursts=2)
    built = EventDrivenXRON(UNDERLAY, DEMAND, sim_config=SimulationConfig(
        seed=seed, initial_gateways=1, reaction=reaction,
        monitoring=MonitoringConfig(representatives=representatives)),
        tracked_pairs=PAIRS)
    for cluster, size in zip(built.clusters.values(), fleet):
        cluster.scale_to(size)
    return built


codes = st.sampled_from(CODES)
#: stream -> (next hop, link type): a next hop may be any other region,
#: so walks reach missing rows and loops.
rows = st.dictionaries(st.integers(0, STREAMS - 1),
                       st.tuples(st.integers(0, len(CODES) - 2),
                                 st.sampled_from(TYPE_ORDER)))
plans = st.dictionaries(st.integers(0, STREAMS - 1),
                        st.lists(st.integers(0, len(CODES) - 2),
                                 max_size=2))
steps = st.lists(st.one_of(
    st.tuples(st.just("tick")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("probe"), st.integers(1, 3)),
    st.tuples(st.just("crash"), codes, st.integers(1, 4)),
    st.tuples(st.just("restore"), codes, st.integers(1, 3)),
    st.tuples(st.just("scale"), codes, st.integers(1, 6)),
    st.tuples(st.just("flag"), codes, st.integers(0, 9),
              st.integers(0, LINKS - 1), st.booleans()),
    st.tuples(st.just("install"), codes, rows, plans),
    st.tuples(st.just("bind"), st.integers(0, len(PAIRS) - 1),
              st.none() | st.integers(0, STREAMS - 1))),
    max_size=30)


def others(code):
    return [other for other in CODES if other != code]


def install(clusters, code, drawn_rows, drawn_plans):
    hops = others(code)
    entries = {sid: (hops[k], tier) for sid, (k, tier) in drawn_rows.items()}
    relays = {sid: tuple(hops[k] for k in picks)
              for sid, picks in drawn_plans.items()}
    clusters[code].install(entries, relays)


def assert_same(new, old, tick):
    for code in CODES:
        a, b = new.clusters[code], old.clusters[code]
        assert a._rr_index == b._rr_index, code
        assert sorted(a.gateways) == sorted(b.gateways)
        for gid, gateway in a.gateways.items():
            twin = b.gateways[gid]
            for name in _STATE:
                assert (getattr(gateway.bank, name).tobytes()
                        == getattr(twin.bank, name).tobytes()), (
                    code, gid, name)
            for name, window in tick.windows(twin).items():
                assert (getattr(gateway.passive, name).tobytes()
                        == window.tobytes()), (code, gid, name)
    for pair in PAIRS:
        a, b = new.sessions[pair], old.sessions[pair]
        assert [x.hex() for x in a.latency_ms + a.loss_rate] == [
            x.hex() for x in b.latency_ms + b.loss_rate]
        assert (a.times, a.on_backup, a.hop_counts, a.blackholed) == (
            b.times, b.on_backup, b.hop_counts, b.blackholed)


def replay(seed, representatives, fleet, threshold, tables, binding,
           history, watch=None):
    """Run `history` on both engines, checking after every step;
    ``watch(action, engine, now)`` sees the engine that runs its own
    tick before each step.  That engine is returned."""
    new, old = (engine(seed, representatives, fleet, threshold)
                for __ in range(2))
    tick = oracle.ScalarTick(old, eventsim._PACKETS_PER_TICK)
    for code, (drawn_rows, drawn_plans) in zip(CODES, tables):
        for built in (new, old):
            install(built.clusters, code, drawn_rows, drawn_plans)
    for pair, sid in zip(PAIRS, binding):
        new.session_stream[pair] = old.session_stream[pair] = sid
    now = T0
    for step in history:
        action = step[0]
        now += 0.5
        sim = SimpleNamespace(now=now)
        if watch is not None:
            watch(action, new, now)
        if action == "tick":
            new._measure(sim)
            tick.measure(now)
        elif action == "flush":
            new._flush_passive(sim)
            tick.flush(now)
        elif action == "probe":
            for __ in range(step[1]):
                now += 0.4
                for built in (new, old):
                    built.monitoring_block.probe(now)
        elif action == "flag":
            __, code, pick, link, flag = step
            for built in (new, old):
                cluster = built.clusters[code]
                gateway = cluster.gateways[
                    cluster.gateway_ids[pick % cluster.size]]
                gateway.bank.adopt(link, now, 50.0, 0.0, np.bool_(flag))
        elif action == "install":
            for built in (new, old):
                install(built.clusters, *step[1:])
        elif action == "bind":
            __, k, sid = step
            new.session_stream[PAIRS[k]] = old.session_stream[PAIRS[k]] = sid
        else:
            __, code, count = step
            for built in (new, old):
                cluster = built.clusters[code]
                if action == "crash":
                    cluster.crash_gateways(count, now)
                elif action == "restore":
                    cluster.restore_gateways(count, now)
                else:
                    cluster.scale_to(count)
        assert_same(new, old, tick)
    return new


fleets = st.lists(st.integers(1, 6), min_size=len(CODES), max_size=len(CODES))
tables = st.lists(st.tuples(rows, plans), min_size=len(CODES),
                  max_size=len(CODES))
bindings = st.lists(st.none() | st.integers(0, STREAMS - 1),
                    min_size=len(PAIRS), max_size=len(PAIRS))
#: In every region stream k leaves over the Internet for the k-th other
#: region, planned via the next one: walks arrive, or loop.
RING = [({k: (k, TYPE_ORDER[0]) for k in range(3)},
         {k: [(k + 1) % 3] for k in range(3)})] * len(CODES)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), representatives=st.integers(1, 3),
       fleet=fleets, threshold=st.integers(0, LINKS - 1), tables=tables,
       binding=bindings, history=steps)
# Ragged fleets that disagree on a flag, then a crash and a restore
# between ticks.
@example(seed=7, representatives=2, fleet=[1, 3, 5, 2], threshold=0,
         tables=RING, binding=[0, 1, 2] * 4,
         history=[("probe", 3), ("flag", CODES[1], 1, 0, True), ("tick",),
                  ("crash", CODES[2], 2), ("tick",), ("restore", CODES[2], 3),
                  ("tick",), ("tick",), ("flush",), ("tick",), ("flush",)])
def test_the_columnar_tick_is_the_scalar_tick(
        seed, representatives, fleet, threshold, tables, binding, history):
    replay(seed, representatives, fleet, threshold, tables, binding, history)


def test_the_generated_worlds_reach_disagreement():
    """A history of the kind drawn above reaches what the differential
    is meant to see: ticks at which the gateways of one cluster
    disagree on the flag of a link a route rides, backups and normal
    hops, blackholed walks, and flushes that ingest."""
    split, flushed = [], []

    def watch(action, engine, now):
        if action == "tick":
            split.append(sum(
                len({bool(gateway.bank.degraded[normal.link])
                     for gateway in cluster.gateways.values()}) > 1
                for cluster in engine.clusters.values()
                for normal, __, __ in cluster.table.routes.values()))
        elif action == "flush":
            flushed.append(now)

    history = [step for k in range(12) for step in (
        ("probe", 2), ("flag", CODES[k % 4], k, k % LINKS, k % 3 == 0),
        ("tick",), ("tick",), ("flush",))]
    new = replay(3, 2, [4, 5, 3, 6], 0, RING, [0, 1, 2, None] * 3, history,
                 watch)
    records = [record for record in new.sessions.values() if record.times]
    assert sum(count > 0 for count in split) > len(split) // 2
    assert any(any(record.on_backup) for record in records)
    assert any(not all(record.on_backup) for record in records)
    assert any(record.blackholed for record in new.sessions.values())
    assert np.isin(new.monitoring_block.bank.last_update, flushed).any()
