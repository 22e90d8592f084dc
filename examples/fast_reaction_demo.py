"""Scenario: watch a gateway detect a degradation and fail over, live.

Event-mode demonstration of §4.3: an XRON gateway — the one member of
its region's cluster — probes its links every 400 ms; we inject a
30-second Internet degradation and watch the
monitoring EWMA climb, the hysteresis trigger, traffic switch to the
pre-computed premium backup within ~1 second, and the gateway revert
after the link recovers.

Run:  python examples/fast_reaction_demo.py
"""

from repro.dataplane.cluster import RegionCluster
from repro.dataplane.config import ReactionConfig
from repro.sim.engine import Simulator
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import build_underlay

STREAM_ID = 1


def main() -> None:
    by_code = {r.code: r for r in default_regions()}
    regions = [by_code[c] for c in ("HGH", "SIN", "FRA")]
    underlay = build_underlay(regions, UnderlayConfig(horizon_s=600.0),
                              seed=13)
    # Quiet natural noise so the injected event is the story.
    for (a, b) in underlay.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(underlay, a, b, lt)
    # A 30 s degradation of HGH->SIN Internet starting at t=10 s.
    inject_events(underlay, "HGH", "SIN", LinkType.INTERNET,
                  [DegradationEvent(10.0, 30.0, 4000.0, 0.25)])

    cluster = RegionCluster("HGH", underlay, initial_gateways=1,
                            reaction=ReactionConfig(trigger_bursts=2,
                                                    recover_bursts=6))
    gateway = cluster.gateways[0]
    # Controller push: forward stream 1 to SIN over Internet; the backup
    # plan is the direct premium link.
    cluster.install({STREAM_ID: ("SIN", LinkType.INTERNET)},
                    {STREAM_ID: ("SIN",)})

    sim = Simulator()
    last_state = {"backup": False}

    def probe_round() -> None:
        cluster.probe_round(sim.now)
        decision = gateway.forward(STREAM_ID, sim.now)
        est = gateway.estimator("SIN", LinkType.INTERNET)
        if decision.via_backup != last_state["backup"]:
            last_state["backup"] = decision.via_backup
            action = ("SWITCH to premium backup" if decision.via_backup
                      else "REVERT to Internet path")
            print(f"t={sim.now:6.1f}s  {action}  "
                  f"(ewma latency {est.latency_ms:6.0f} ms, "
                  f"ewma loss {est.loss_rate * 100:5.2f}%)")

    def report() -> None:
        est = gateway.estimator("SIN", LinkType.INTERNET)
        decision = gateway.forward(STREAM_ID, sim.now)
        path = "premium backup" if decision.via_backup else "Internet"
        print(f"t={sim.now:6.1f}s  link ewma: {est.latency_ms:6.0f} ms / "
              f"{est.loss_rate * 100:5.2f}% loss   -> forwarding via {path}")

    sim.every(0.4, probe_round)          # §4.1: one burst per 400 ms
    sim.every(5.0, report, start_delay=2.5)
    print("degradation scheduled for t=10..40 s on HGH->SIN (Internet)\n")
    sim.run_until(60.0)

    est = gateway.estimator("SIN", LinkType.INTERNET)
    print(f"\ndetections on HGH->SIN Internet: {est.degradation_count}")
    print("probe overhead this minute: "
          f"{gateway.probe_bytes_sent / 1e6:.1f} MB across "
          f"{len(underlay.codes) - 1} neighbours x 2 tiers")


if __name__ == "__main__":
    main()
