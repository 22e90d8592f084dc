"""Tests for gateway-level link instances and the similarity metric."""

from unittest import mock

import numpy as np
import pytest

from repro.underlay import similarity
from repro.underlay.linkstate import LinkType
from repro.underlay.similarity import (GatewayLinkInstance,
                                       make_gateway_links,
                                       quality_similarity)


@pytest.fixture()
def pair_link(small_underlay):
    a, b = small_underlay.pairs[0]
    return small_underlay.link(a, b, LinkType.INTERNET)


def _links(pair_link, rng, n=3, rate=100.0):
    with mock.patch.object(similarity, "IDIO_DURATION_MEAN_S", 6.0):
        return make_gateway_links(
            pair_link, n, rng,
            event_latency_mu=5.9, event_latency_sigma=1.2,
            event_loss_mu=-3.4, event_loss_sigma=1.0,
            idio_events_per_day=rate)


def test_requested_number_of_links(pair_link, rng):
    assert len(_links(pair_link, rng, n=5)) == 5


def test_zero_gateways_rejected(pair_link, rng):
    with pytest.raises(ValueError):
        _links(pair_link, rng, n=0)


def test_gateway_link_at_least_pair_severity(pair_link, rng):
    link = _links(pair_link, rng)[0]
    t = np.arange(0, 3600, 10.0)
    assert np.all(link.latency_ms(t) >= pair_link.latency_ms(t) - 1e-9)
    assert np.all(link.loss_rate(t) >= pair_link.loss_rate(t) - 1e-9)


def test_gateway_links_differ_from_each_other(pair_link, rng):
    links = _links(pair_link, rng, n=2, rate=2000.0)
    t = np.arange(0, 21600, 5.0)
    assert not np.allclose(links[0].latency_ms(t), links[1].latency_ms(t))


def test_loss_stays_clipped(pair_link, rng):
    links = _links(pair_link, rng, rate=3000.0)
    t = np.arange(0, 21600, 10.0)
    for link in links:
        assert np.all(link.loss_rate(t) <= 1.0)


def test_similarity_single_link_is_one(pair_link, rng):
    links = _links(pair_link, rng, n=1)
    assert quality_similarity(links, 0, 3600.0) == 1.0


def test_similarity_identical_links_is_one(pair_link):
    from repro.underlay.events import EventTimeline
    empty = EventTimeline.from_events([], pair_link.timeline.horizon_s)
    links = [GatewayLinkInstance(pair_link, empty, i) for i in range(3)]
    assert quality_similarity(links, 0, 3600.0, 10.0) == 1.0


def test_similarity_decreases_with_idiosyncrasy(pair_link):
    low = _links(pair_link, np.random.default_rng(0), n=4, rate=20.0)
    high = _links(pair_link, np.random.default_rng(0), n=4, rate=4000.0)
    s_low = quality_similarity(low, 0, 21600.0, 10.0)
    s_high = quality_similarity(high, 0, 21600.0, 10.0)
    assert s_high < s_low


def test_similarity_in_unit_interval(pair_link, rng):
    links = _links(pair_link, rng, n=4, rate=500.0)
    s = quality_similarity(links, 0, 21600.0, 10.0)
    assert 0.0 <= s <= 1.0


def test_paper_range_for_calibrated_settings(small_underlay):
    """With calibrated settings, similarity lands in the paper's >=77% zone."""
    sims = []
    for (a, b) in small_underlay.pairs[:6]:
        pair = small_underlay.link(a, b, LinkType.INTERNET)
        links = make_gateway_links(
            pair, 4, np.random.default_rng(hash((a, b)) % 2**32),
            event_latency_mu=small_underlay.config.internet.event_latency_mu,
            event_latency_sigma=small_underlay.config.internet.event_latency_sigma,
            event_loss_mu=small_underlay.config.internet.event_loss_mu,
            event_loss_sigma=small_underlay.config.internet.event_loss_sigma)
        sims.append(quality_similarity(links, 0, 21600.0, 10.0))
    assert min(sims) >= 0.77
