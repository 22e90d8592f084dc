"""`LinkStateSnapshot`: vectorised builds and batched path metrics.

The contract under test is *bit-exactness*: the matrix snapshot must
reproduce the scalar oracle (`tests/snapshots.py::ScalarLink`) down to
the last ULP, because the golden-equivalence suite pins whole control
outputs on it.
Every comparison here is `==`, never `pytest.approx`.
"""

import numpy as np
import pytest

from repro.controlplane.model import OverlayPath
from repro.underlay.events import MAX_RAMP_S, RAMP_FRACTION
from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import (TYPE_INDEX, TYPE_ORDER,
                                     LinkStateSnapshot, SegmentMemo)
from tests.snapshots import ScalarLink, empty_snapshot

I, P = LinkType.INTERNET, LinkType.PREMIUM


class TestFromUnderlay:
    @pytest.mark.parametrize("now", [0.0, 3600.0, 12345.6, 6 * 3600.0])
    def test_bit_identical_to_link_processes(self, small_underlay, now):
        snap = small_underlay.snapshot(now)
        codes = small_underlay.codes
        for t in TYPE_ORDER:
            for a in codes:
                for b in codes:
                    if a == b:
                        continue
                    link = ScalarLink(small_underlay.link(a, b, t))
                    ti, i, j = TYPE_INDEX[t], snap.index[a], snap.index[b]
                    assert snap.lat[ti, i, j] == float(link.latency_ms(now))
                    assert snap.loss[ti, i, j] == float(link.loss_rate(now))

    def test_diagonal_is_missing(self, small_underlay):
        snap = small_underlay.snapshot(100.0)
        n = len(snap.codes)
        for ti in range(2):
            for i in range(n):
                assert snap.lat[ti, i, i] == np.inf
                assert snap.loss[ti, i, i] == 1.0

    def test_beyond_horizon_raises_like_link_process(self, small_underlay):
        beyond = small_underlay.config.horizon_s + 10.0
        with pytest.raises(ValueError, match="horizon"):
            small_underlay.snapshot(beyond)
        some_link = small_underlay.link(*small_underlay.pairs[0], I)
        with pytest.raises(ValueError, match="horizon"):
            some_link.latency_ms(beyond)

    def test_param_arrays_are_cached(self, small_underlay):
        """The table is built with the underlay; every evaluation reads
        it and every view is a window on it."""
        table = small_underlay.table
        small_underlay.snapshot(60.0)
        small_underlay.link_series(
            [(*small_underlay.pairs[0], I)], np.arange(3.0))
        assert small_underlay.table is table
        assert small_underlay.link(*small_underlay.pairs[0], P)._table \
            is table


class TestFromFnAndEnsure:
    def test_ensure_passes_snapshot_through(self, small_underlay):
        snap = small_underlay.snapshot(60.0)
        assert LinkStateSnapshot.ensure(snap, small_underlay.codes) is snap

    def test_ensure_rejects_mismatched_codes(self, small_underlay):
        snap = small_underlay.snapshot(60.0)
        with pytest.raises(ValueError, match="do not match"):
            LinkStateSnapshot.ensure(snap, list(reversed(snap.codes)))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="must be"):
            LinkStateSnapshot(["A", "B"], np.zeros((2, 3, 3)),
                              np.zeros((2, 3, 3)))


def test_symmetric_averages_round_trips_and_drops_one_way_links():
    snap = empty_snapshot(["A", "B", "C"], t=5.0)
    a, b, c = (snap.index[r] for r in "ABC")
    ti = TYPE_INDEX[I]
    snap.lat[ti, a, b], snap.loss[ti, a, b] = 100.0, 0.0
    snap.lat[ti, b, a], snap.loss[ti, b, a] = 300.0, 0.1
    snap.lat[ti, a, c], snap.loss[ti, a, c] = 50.0, 0.0  # C -> A missing
    sym = snap.symmetric()
    assert sym.lookup("A", "B", I) == sym.lookup("B", "A", I) == (200.0, 0.05)
    assert sym.lookup("A", "C", I) == sym.lookup("C", "A", I) == (np.inf, 1.0)
    assert sym.lookup("A", "B", P) == (np.inf, 1.0)
    assert sym.t == 5.0 and snap.lookup("A", "B", I) == (100.0, 0.0)


class TestPathMetrics:
    @pytest.fixture(scope="class")
    def snap_and_state(self, small_underlay):
        """The snapshot at one instant and, per link, the scalar
        oracle's (latency, loss) at the same instant."""
        now = 2400.0

        def state(a, b, t):
            link = ScalarLink(small_underlay.link(a, b, t))
            return (float(link.latency_ms(now)), float(link.loss_rate(now)))
        return small_underlay.snapshot(now), state

    @pytest.fixture(scope="class")
    def paths(self, small_underlay):
        a, b, c, d = small_underlay.codes
        return [
            OverlayPath.direct(a, b, I),
            OverlayPath.direct(b, a, P),
            OverlayPath.via((a, c, b), P),
            OverlayPath(((a, d, I), (d, c, P), (c, b, I)), (a, d, c, b)),
            OverlayPath.via((d, b, a, c), I),
        ]

    def test_scalar_metrics_match_model_functions(self, snap_and_state,
                                                  paths):
        """Table 1's Lat(P) over the scalar link model, hop by hop left
        to right."""
        snap, state = snap_and_state
        for path in paths:
            latency = 0.0
            for hop in path.hops:
                latency = latency + state(*hop)[0]
            assert snap.path_latency_ms(path) == latency

    def test_direct_latency_gather(self, snap_and_state, small_underlay):
        snap, state = snap_and_state
        srcs = [a for (a, b) in small_underlay.pairs]
        dsts = [b for (a, b) in small_underlay.pairs]
        got = snap.direct_latency(srcs, dsts, P)
        for k, (a, b) in enumerate(small_underlay.pairs):
            assert got[k] == state(a, b, P)[0]
        assert snap.direct_latency([], [], P).shape == (0,)


def engine_instants(start_s, interval_s, count):
    """Instants as `Simulator.every` reaches them: repeated addition."""
    out, t = [], start_s
    for _ in range(count):
        out.append(t)
        t = t + interval_s
    return out


def ramp_instant(underlay):
    """An instant halfway up the first degradation ramp of some link."""
    for link in underlay.links_of_type(I):
        events = [e for e in link.timeline.events if e.start > 1.0]
        if events:
            ramp_s = min(MAX_RAMP_S, RAMP_FRACTION * events[0].duration)
            return events[0].start + ramp_s / 2.0
    raise AssertionError("underlay has no degradation events")


def reader(underlay, interval_s=0.4):
    """A reader of every link's true state by `BurstNoise` blocks."""
    from repro.dataplane.probing import BurstNoise
    from repro.sim.rng import RngStreams
    return BurstNoise(underlay, RngStreams(1), "probe", 1, 15, interval_s)


def assert_equals_the_oracle(noise, t):
    latency, loss, __, __ = noise.at(t)
    for k, (a, b, lt) in enumerate(noise.hops):
        link = ScalarLink(noise.underlay.link(a, b, lt))
        assert (latency[k], loss[k]) == (float(link.latency_ms(t)),
                                         float(link.loss_rate(t))), \
            (a, b, lt, t)


class TestStateAt:
    """The event engine's true link state at its instants: rows of
    `BurstNoise` blocks, pinned `==` to the scalar oracle."""

    def test_paper_underlay_at_engine_instants(self, full_underlay):
        start = 8 * 3600.0
        probes = engine_instants(start, 0.4, 80)
        # hash_noise indexes floor(t): 0.4 accumulates to just above or
        # below whole seconds (…802.000000000004), so take both sides;
        # 80 steps are a one-instant block, a whole one and the next.
        assert any(t != round(t) and abs(t - round(t)) < 1e-9
                   for t in probes)
        noise = reader(full_underlay)
        for t in probes + [start + 1.0, start + 2.0, 0.0,
                           ramp_instant(full_underlay)]:
            assert_equals_the_oracle(noise, t)

    def test_planet_underlay_at_engine_instants(self):
        from repro.underlay.config import UnderlayConfig
        from repro.underlay.planet import build_planet_underlay
        planet = build_planet_underlay(
            50, seed=3, underlay_config=UnderlayConfig(horizon_s=9 * 3600.0))
        start = 8 * 3600.0
        noise = reader(planet)
        for t in (engine_instants(start, 0.4, 6)[-2:]
                  + [start + 1.0, ramp_instant(planet)]):
            assert_equals_the_oracle(noise, t)

    def test_same_instant_same_object(self, small_underlay):
        """The boot round and the first periodic round share an instant:
        the second read is a row of the same block, evaluated once."""
        noise = reader(small_underlay)
        first = noise.at(120.0)
        block = noise._block
        for again in (noise.at(120.0), noise.at(120)):
            assert noise._block is block
            for part, was in zip(again, first):
                assert part.base is was.base
                assert np.array_equal(part, was)

    def test_new_instant_new_object_and_old_one_untouched(self,
                                                          small_underlay):
        noise = reader(small_underlay)
        first = noise.at(120.0)
        kept = [part.copy() for part in first]
        second = noise.at(120.0 + 0.4)
        assert second[0] is not first[0]
        for part, copy in zip(first, kept):
            assert np.array_equal(part, copy)
        assert not np.array_equal(second[0], kept[0])

    def test_shared_state_is_read_only(self, small_underlay):
        noise = reader(small_underlay)
        noise.at(60.0)
        for part in noise.at(60.0 + 0.4):
            with pytest.raises(ValueError, match="read-only"):
                part[..., 0] = 1

    def test_snapshot_stays_fresh_and_writable(self, small_underlay):
        noise = reader(small_underlay)
        latency = noise.at(60.0)[0]
        snap = small_underlay.snapshot(60.0)
        assert snap is not small_underlay.snapshot(60.0)
        ti, i, j = (axis[0] for axis in noise.index)
        snap.lat[ti, i, j] += 1.0
        snap.loss[ti, i, j] = 0.5
        assert noise.at(60.0)[0][0] == latency[0] == snap.lat[ti, i, j] - 1.0

    def test_beyond_horizon_raises_like_snapshot(self, small_underlay,
                                                 monkeypatch):
        from repro.underlay.snapshot import LinkTable
        beyond = small_underlay.config.horizon_s + 10.0
        noise = reader(small_underlay)
        with pytest.raises(ValueError, match="exceeds the generated horizon"):
            noise.at(beyond)
        latency = noise.at(60.0)[0].copy()
        blocks = []
        block = LinkTable.block
        monkeypatch.setattr(LinkTable, "block",
                            lambda self, times, memo=None: blocks.append(
                                times) or block(self, times, memo))
        with pytest.raises(ValueError, match="horizon"):
            noise.at(beyond)
        # The failed query left the block in place.
        assert np.array_equal(noise.at(60.0)[0], latency)
        assert len(blocks) == 1


# --------------------------------------------------------- segment memo
def scalar_adds(underlay, t):
    """What `timeline_block` must equal: every link's own lookup."""
    params = underlay.table
    shape = params.base_latency_ms.shape
    lat, loss = np.zeros(shape), np.zeros(shape)
    for key, timeline in params.timelines.items():
        lat[key] = timeline.latency_add(t)
        loss[key] = timeline.loss_add(t)
    return lat, loss


def assert_memo_equals_scalar_lookups(underlay, instants, memo=None, run=1):
    """`timeline_block` through one memo over `instants`, `run` at a
    time (each run ascending), equals the scalar lookups."""
    params = underlay.table
    memo = SegmentMemo() if memo is None else memo
    for k in range(0, len(instants), run):
        times = np.array(instants[k:k + run], dtype=float)
        got = params.timeline_block(times, memo)
        for row, t in enumerate(times.tolist()):
            want = scalar_adds(underlay, t)
            assert np.array_equal(got[0][row], want[0]), t
            assert np.array_equal(got[1][row], want[1]), t


def busiest_timeline(underlay):
    return max(underlay.table.timelines.values(), key=len)


def eventful(underlay):
    """The timelines of the links that have events."""
    return [tl for tl in underlay.table.timelines.values() if len(tl)]


@pytest.fixture(scope="module")
def planet():
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.planet import build_planet_underlay
    return build_planet_underlay(
        50, seed=3, underlay_config=UnderlayConfig(horizon_s=9 * 3600.0))


class TestSegmentMemo:
    """`LinkTable.timeline_block`'s memo remembers each link's current
    linear piece; whatever it remembers, any instant in any order, and
    any ascending run of them, must give `latency_add` / `loss_add`'s
    bits."""

    @pytest.fixture(params=["paper", "planet"])
    def underlay(self, request, full_underlay, planet):
        return full_underlay if request.param == "paper" else planet

    @staticmethod
    def some(underlay, count):
        """`count` at paper scale; the planet's oracle is 20x dearer."""
        return count if len(underlay.codes) < 20 else max(2, count // 6)

    def test_monotone_engine_steps(self, underlay):
        instants = engine_instants(8 * 3600.0, 0.4, self.some(underlay, 60))
        assert_memo_equals_scalar_lookups(underlay, instants)
        assert_memo_equals_scalar_lookups(underlay, instants, run=7)

    def test_on_before_and_after_the_breakpoints(self, underlay):
        times = busiest_timeline(underlay)._times
        assert len(times) > 8
        on = ([float(t) for t in times[:self.some(underlay, 6)]]
              + [float(times[-1])])
        around = [np.nextafter(t, -np.inf) for t in on] \
            + [np.nextafter(t, np.inf) for t in on]
        first = min(float(tl._times[0]) for tl in eventful(underlay))
        assert first > 0.0
        horizon = underlay.table.horizon_s
        assert_memo_equals_scalar_lookups(
            underlay, on + around + [0.0, first / 2.0, first, horizon])

    def test_backwards_and_random_jumps(self, underlay):
        rng = np.random.default_rng(4)
        horizon = underlay.table.horizon_s
        steps = engine_instants(3600.0, 0.4, 5)
        assert_memo_equals_scalar_lookups(
            underlay, steps + steps[::-1] + [7 * 3600.0, 60.0]
            + list(rng.uniform(0.0, horizon, self.some(underlay, 40))))

    def test_only_links_that_left_their_piece_are_searched(self, underlay,
                                                           monkeypatch):
        from repro.underlay.events import EventTimeline
        params = underlay.table
        memo = SegmentMemo()
        start = 5 * 3600.0
        params.timeline_block(np.array([start - 1800.0]), memo)
        searched = []
        cover = EventTimeline.cover
        monkeypatch.setattr(
            EventTimeline, "cover",
            lambda self, *window: searched.append(window)
            or cover(self, *window))
        instants = engine_instants(start, 0.4, 25)

        def starts():
            """Where each link's current piece starts, link by link."""
            window = memo.window
            out = np.empty(window.links.size)
            out[window.links] = window.columns[0][memo.piece]
            return out
        changed, searches = [], []
        for t in instants:
            before = starts()
            del searched[:]
            params.timeline_block(np.array([t]), memo)
            searches.append(len(searched))
            changed.append(int(np.count_nonzero(starts() != before)))

        def piece(t):
            return [int(np.searchsorted(tl._times, t, side="right"))
                    for tl in eventful(underlay)]
        pieces_at = [piece(t) for t in [start - 1800.0] + instants]
        moved = [sum(a != b for a, b in zip(before, after))
                 for before, after in zip(pieces_at, pieces_at[1:])]
        # The jump out of the piece window searches, once, each timeline
        # with a breakpoint since; inside the window no timeline is
        # searched, and the memo moves exactly the links a breakpoint
        # passed — after the jump most of them, on a 0.4 s step a few.
        assert moved[0] <= searches[0] <= len(eventful(underlay))
        assert searches[1:] == [0] * 24
        assert changed == moved
        assert moved[0] > 0.5 * len(eventful(underlay))
        assert max(moved[1:]) < 0.05 * len(eventful(underlay))


def test_segment_memo_follows_a_swapped_timeline(small_regions):
    """`inject_events` / `quiet_link` swap a timeline through
    `Underlay.set_timeline`: the memo must not outlive the timeline it
    was taken from."""
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.events import DegradationEvent
    from repro.underlay.scenarios import inject_events, quiet_link
    from repro.underlay.topology import build_underlay
    underlay = build_underlay(small_regions, UnderlayConfig(horizon_s=7200.0),
                              seed=11)
    a, b = underlay.pairs[0]
    instants = engine_instants(100.0, 0.4, 8)
    memo = SegmentMemo()
    assert_memo_equals_scalar_lookups(underlay, instants, memo)
    inject_events(underlay, a, b, I,
                  [DegradationEvent(101.0, 30.0, 500.0, 0.2)])
    assert_memo_equals_scalar_lookups(underlay, instants, memo, run=8)
    index = underlay.table.index
    key = (TYPE_INDEX[I], index[a], index[b])
    ramp = underlay.table.timeline_block(np.array([102.0]), memo)
    assert ramp[0][0][key] > 0.0 and ramp[1][0][key] > 0.0
    assert_equals_the_oracle(reader(underlay), 102.0)
    quiet_link(underlay, a, b, I)
    assert_memo_equals_scalar_lookups(underlay, instants + [102.0], memo)
    assert underlay.table.timeline_block(
        np.array([102.0]), memo)[0][0][key] == 0.0


# ---------------------------------------------------------- jitter memo
def fresh_underlay(regions, edit=None):
    """An underlay nobody has asked anything yet, after `edit(underlay)`."""
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.topology import build_underlay
    underlay = build_underlay(regions, UnderlayConfig(horizon_s=7200.0),
                              seed=11)
    if edit is not None:
        edit(underlay)
    return underlay


def assert_same_bits(got, want, t):
    assert np.array_equal(got.lat, want.lat), t
    assert np.array_equal(got.loss, want.loss), t


def assert_same_rows(noise, t, want):
    """`noise`'s truth at `t` is the snapshot `want`'s, link by link."""
    latency, loss, __, __ = noise.at(t)
    assert np.array_equal(latency, want.lat[noise.index]), t
    assert np.array_equal(loss, want.loss[noise.index]), t


def test_memos_are_invisible_in_any_visiting_order(small_regions):
    """`snapshot` and a reader's blocks remember whole seconds' jitter
    factors and each link's timeline piece; whatever they remember, an
    instant gives the bits a fresh underlay gives."""
    from repro.underlay.events import DegradationEvent
    from repro.underlay.scenarios import inject_events
    underlay = fresh_underlay(small_regions)
    forward = engine_instants(100.0, 0.4, 9)           # 100.0 ... 103.2
    inside_one_second = [101.2, 101.9, 101.0, 101.2, 101.2]
    across_a_boundary = [101.99, 102.0, np.nextafter(102.0, -np.inf),
                         102.0, 3600.0, 102.4, 0.0]
    order = (forward + forward[::-1] + inside_one_second
             + across_a_boundary)
    noise = reader(underlay)
    for k, t in enumerate(order):
        # A reader's blocks and `snapshot` share the jitter memo:
        # alternate them.
        want = fresh_underlay(small_regions).snapshot(t)
        if k % 2:
            assert_same_rows(noise, t, want)
        else:
            assert_same_bits(underlay.snapshot(t), want, t)

    a, b = underlay.pairs[0]

    def swap(u):
        inject_events(u, a, b, I, [DegradationEvent(101.0, 30.0, 500.0, 0.2)])
    underlay.snapshot(102.4)            # the memos hold second 102
    swap(underlay)                      # ... and `set_timeline`
    for t in (102.4, 102.0, 101.2, 102.8):
        assert_same_rows(noise, t,
                         fresh_underlay(small_regions, swap).snapshot(t))
    assert underlay.snapshot(102.8).lookup(a, b, I)[0] \
        > fresh_underlay(small_regions).snapshot(102.8).lookup(a, b, I)[0] \
        + 100.0


def test_jitter_is_hashed_once_per_second(small_underlay, monkeypatch):
    from repro.underlay import snapshot as module
    hashed = []
    hash_noise = module.hash_noise
    monkeypatch.setattr(
        module, "hash_noise",
        lambda seed, t, salt=0: hashed.extend(np.ravel(t).tolist())
        or hash_noise(seed, t, salt=salt))
    small_underlay.snapshot(50.0)       # whatever second the memo held
    del hashed[:]
    for t in engine_instants(60.0, 0.4, 10) + [61.2, 60.0, 60.4]:
        small_underlay.snapshot(t)
    # Two factors per second entered: 60, 61, 62, 63, then back to 61, 60.
    assert hashed == [s for s in (60.0, 61.0, 62.0, 63.0, 61.0, 60.0)
                      for __ in range(2)]
