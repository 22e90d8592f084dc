"""Tests for capacity control (§5.3, step 2)."""


from repro.controlplane.model import ControlConfig
from repro.controlplane.pathcontrol import path_control
from repro.controlplane.capacity import capacity_control
from repro.traffic.streams import Stream, VIDEO_PROFILES
from repro.underlay.linkstate import LinkType
from tests.snapshots import snapshot_of
from tests.tables import table_of

CODES = ["A", "B", "C"]


def _links(a, b, t):
    if t is LinkType.INTERNET:
        return (100.0, 0.0001)
    return (80.0, 0.00001)


_state = snapshot_of(CODES, _links)


def _cfg():
    return ControlConfig(container_capacity_mbps=10.0, max_containers=16,
                         capacity_headroom=1.0)


def _stream(sid, src, dst, mbps):
    return Stream(sid, src, dst, mbps, VIDEO_PROFILES[2])


def _decide(streams, available):
    streams = table_of(streams, CODES)
    r_cur = path_control(streams, CODES, _state, _cfg(), gateways=available)
    return capacity_control(streams, CODES, _state, _cfg(), available, r_cur)


def test_scale_up_when_demand_exceeds_available():
    # 50 Mbps needs 5 containers per touched region; only 2 available.
    decision = _decide([_stream(1, "A", "B", 50.0)],
                       {"A": 2, "B": 2, "C": 2})
    assert decision.add["A"] == 3
    assert decision.target["A"] == 5
    assert decision.target["B"] == 5


def test_scale_down_when_over_provisioned():
    decision = _decide([_stream(1, "A", "B", 10.0)],
                       {"A": 8, "B": 8, "C": 8})
    assert decision.remove["A"] == 7
    assert decision.target["A"] == 1


def test_idle_region_keeps_minimum_one():
    decision = _decide([_stream(1, "A", "B", 10.0)],
                       {"A": 2, "B": 2, "C": 4})
    assert decision.target["C"] == 1
    assert decision.remove["C"] == 3


def test_steady_state_no_churn():
    decision = _decide([_stream(1, "A", "B", 20.0)],
                       {"A": 2, "B": 2, "C": 1})
    assert decision.add == {"A": 0, "B": 0, "C": 0}
    assert decision.remove == {"A": 0, "B": 0, "C": 0}


def test_target_capped_at_quota():
    decision = _decide([_stream(1, "A", "B", 1000.0)],
                       {"A": 2, "B": 2, "C": 2})
    assert decision.target["A"] <= 16


def test_keeps_max_of_current_and_next_usage():
    """Paper rule: remove only surplus over max(R_cur, R_next)."""
    # Current capacity serves 30 Mbps (3 gw); prediction says 10 Mbps.
    # R_cur used 3, R_next needs 1, available 8 -> keep 3.
    streams_now = table_of([_stream(1, "A", "B", 30.0)], CODES)
    available = {"A": 8, "B": 8, "C": 8}
    r_cur = path_control(streams_now, CODES, _state, _cfg(),
                         gateways=available)
    predicted = table_of([_stream(2, "A", "B", 10.0)], CODES)
    decision = capacity_control(predicted, CODES, _state, _cfg(), available,
                                r_cur)
    assert decision.target["A"] == 3


def test_total_target_sums_regions():
    decision = _decide([_stream(1, "A", "B", 10.0)],
                       {"A": 1, "B": 1, "C": 1})
    assert decision.total_target() == sum(decision.target.values())


def test_uncapacitated_result_attached():
    """R_next — the uncapacitated run step 2 sizes the fleet from —
    places everything, and a scale-up targets exactly its usage."""
    streams = [_stream(1, "A", "B", 50.0)]
    decision = _decide(streams, {"A": 1, "B": 1, "C": 1})
    r_next = path_control(table_of(streams, CODES), CODES, _state, _cfg(),
                          gateways=None)
    assert not r_next.unassigned
    assert decision.target == {"A": 5, "B": 5, "C": 1}
    assert {c: r_next.used_gateways[c] for c in ("A", "B")} == \
        {"A": decision.target["A"], "B": decision.target["B"]}
