"""Tests for the soft-state gateway membership table."""

from repro.controlplane.membership import (MEMBERSHIP_TTL_S,
                                           MembershipTable, membership)


class TestConfig:
    def test_convenience_constructor_arms(self):
        assert membership() is True


class TestRefreshExpiry:
    def test_refresh_counts_joins_once_per_gateway(self):
        table = MembershipTable()
        table.refresh("HGH", [1, 2], now=0.0)
        table.refresh("HGH", [1, 2], now=1.0)
        assert table.counters.joins == 2
        assert table.counters.refreshes == 4
        assert table.size == 2
        assert table.alive_count("HGH") == 2

    def test_entries_expire_strictly_after_ttl(self):
        table = MembershipTable()
        table.refresh("HGH", [1], now=0.0)
        assert MEMBERSHIP_TTL_S == 3.0
        assert table.expire(3.0) == []          # exactly at TTL: still live
        assert table.expire(3.1) == [("HGH", 1)]
        assert table.size == 0
        assert table.counters.expiries == 1

    def test_expiry_keeps_the_region_known(self):
        table = MembershipTable()
        table.refresh("HGH", [1], now=0.0)
        table.expire(10.0)
        assert table.known("HGH")
        assert table.alive_count("HGH") == 0

    def test_rejoin_after_expiry_counts_a_fresh_join(self):
        table = MembershipTable()
        table.refresh("HGH", [1], now=0.0)
        table.expire(10.0)
        table.refresh("HGH", [1], now=10.0)
        assert table.counters.joins == 2


class TestClamp:
    def test_never_seen_region_keeps_configured_capacity(self):
        table = MembershipTable()
        assert table.clamp({"HGH": 4}) == {"HGH": 4}
        assert table.counters.regions_demoted == 0

    def test_known_but_expired_region_demotes_to_zero(self):
        table = MembershipTable()
        table.refresh("HGH", [1, 2], now=0.0)
        table.expire(10.0)
        assert table.clamp({"HGH": 4, "SIN": 3}, now=10.0) == {
            "HGH": 0, "SIN": 3}
        assert table.counters.regions_demoted == 1

    def test_live_region_clamps_to_alive_count(self):
        table = MembershipTable()
        table.refresh("HGH", [1, 2], now=0.0)
        assert table.clamp({"HGH": 4}) == {"HGH": 2}
        assert table.clamp({"HGH": 1}) == {"HGH": 1}


class TestReset:
    def test_reset_drops_soft_state_but_keeps_counters(self):
        table = MembershipTable()
        table.refresh("HGH", [1], now=0.0)
        table.reset()
        assert table.size == 0
        assert not table.known("HGH")
        assert table.counters.joins == 1
        # Back to boot grace: the configured count rides again.
        assert table.clamp({"HGH": 4}) == {"HGH": 4}
