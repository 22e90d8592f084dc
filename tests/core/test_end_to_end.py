"""End-to-end ordering tests: the paper's headline comparisons must hold
qualitatively even at small scale."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.system import XRONSystem
from repro.core.variants import internet_only, premium_only, xron, xron_basic
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.scenarios import inject_events


@pytest.fixture(scope="module")
def results():
    """One two-hour busy-period run per §6.1 variant, 11 regions."""
    system = XRONSystem(
        seed=1,
        underlay_config=UnderlayConfig(horizon_s=14 * 3600.0),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0, seed=1))
    out = {}
    for variant in (xron(), internet_only(), premium_only(), xron_basic()):
        out[variant.name] = system.run(variant=variant, start_hour=9.0,
                                       hours=2.0)
    return out


def test_xron_stall_ratio_much_lower_than_internet(results):
    """Paper: -77% video stall ratio."""
    x = results["XRON"].qoe_summary().stall_ratio
    i = results["Internet only"].qoe_summary().stall_ratio
    assert x < i * 0.5


def test_xron_close_to_premium_on_stalls(results):
    x = results["XRON"].qoe_summary().stall_ratio
    p = results["Premium only"].qoe_summary().stall_ratio
    assert x - p < 0.02


def test_xron_frame_rate_above_internet(results):
    """Paper: +12% frame rate."""
    x = results["XRON"].qoe_summary().mean_fps
    i = results["Internet only"].qoe_summary().mean_fps
    assert x > i * 1.02


def test_xron_bad_audio_much_lower(results):
    """Paper: -65.2% bad audio."""
    x = results["XRON"].qoe_summary().bad_audio_fraction
    i = results["Internet only"].qoe_summary().bad_audio_fraction
    assert x < i * 0.6


def test_tail_latency_improvement(results):
    """Paper Table 2: p99.9 latency 9x better than Internet-only."""
    x = results["XRON"].latency_percentiles(weighted=False)["99.9%"]
    i = results["Internet only"].latency_percentiles(weighted=False)["99.9%"]
    assert i / x > 3.0


def test_tail_loss_improvement(results):
    """Paper Table 3: p99.9 loss 263x better; we require >3x."""
    x = results["XRON"].loss_percentiles(weighted=False)["99.9%"]
    i = results["Internet only"].loss_percentiles(weighted=False)["99.9%"]
    assert i / x > 3.0


def test_fast_reaction_beats_basic(results):
    """Paper Fig. 18: fast reaction removes most large-latency cases."""
    x = results["XRON"].latency_ms
    b = results["XRON-Basic"].latency_ms
    big_x = int(np.sum(x > 1000.0))
    big_b = int(np.sum(b > 1000.0))
    assert big_x < big_b * 0.5


def test_cost_ordering(results):
    """Paper Fig. 17d: Internet-only < XRON << premium-only."""
    costs = {name: res.ledger.breakdown().total
             for name, res in results.items()}
    assert costs["Internet only"] < costs["XRON"] < costs["Premium only"]
    # Paper: XRON is 4.73x cheaper than premium-only.
    assert costs["Premium only"] / costs["XRON"] > 2.0


def test_premium_usage_is_minor_for_xron(results):
    """Paper Fig. 17b: ~3% premium share; we require well under half."""
    assert results["XRON"].premium_traffic_share() < 0.35


def test_hop_counts_small(results):
    """Paper Fig. 17a: 1.19 average hops."""
    samples = results["XRON"].normal_hop_samples
    hops = np.array([h for h, __ in samples], dtype=float)
    weights = np.array([w for __, w in samples])
    assert 1.0 <= np.average(hops, weights=weights) < 1.8


class TestOverlayResilience:
    def test_xron_rides_out_transit_outage(self, small_regions):
        """During an Internet-tier outage at the source region (every
        Internet link touching HGH, both directions, for twenty
        minutes), XRON's premium backups keep the pair usable while
        Internet-only dies."""
        outage = DegradationEvent(1800.0, 1200.0, 6000.0, 0.4)
        results = {}
        for make in (xron, internet_only):
            system = XRONSystem(
                regions=list(small_regions), seed=9,
                underlay_config=UnderlayConfig(horizon_s=7200.0),
                sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=10.0,
                                            seed=9))
            for other in system.underlay.codes:
                if other != "HGH":
                    for a, b in (("HGH", other), (other, "HGH")):
                        inject_events(system.underlay, a, b,
                                      LinkType.INTERNET, [outage],
                                      keep_existing=True)
            results[make().name] = system.run(variant=make(),
                                              start_hour=0.0, hours=1.0)
        idx = results["XRON"].pair_index("HGH", "SIN")
        window = (results["XRON"].times >= 1800.0) & \
                 (results["XRON"].times < 3000.0)
        xron_lat = results["XRON"].latency_ms[idx][window]
        legacy_lat = results["Internet only"].latency_ms[idx][window]
        assert legacy_lat.max() > 5000.0
        assert np.median(xron_lat) < 1000.0
