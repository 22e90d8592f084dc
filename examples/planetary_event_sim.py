"""Scenario: the full control/data-plane machinery, event by event.

Runs the complete eleven-region deployment on the discrete-event engine:
representative gateways probe every 400 ms (group-based probing),
clusters share group state, the controller recomputes paths/plans/
capacity every epoch, container pools provision with realistic delays,
and tracked sessions are forwarded hop by hop through the live tables —
fast reaction included.

Run:  python examples/planetary_event_sim.py  [--minutes 5]
"""

import argparse

import numpy as np

from repro.core import SimulationConfig, XRONSystem
from repro.underlay.config import UnderlayConfig


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--minutes", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    deployment = XRONSystem(
        seed=args.seed,
        underlay_config=UnderlayConfig(horizon_s=6 * 3600.0),
        sim_config=SimulationConfig(epoch_s=60.0, seed=args.seed,
                                    initial_gateways=2))
    regions = deployment.regions
    system = deployment.event_engine()

    start = 2.0 * 3600.0  # 10:00 in the China regions: first daily peak
    print(f"running {args.minutes:g} simulated minutes across "
          f"{len(regions)} regions (~{len(regions) * 2} gateways to start)"
          " ...\n")
    result = system.run(start, args.minutes * 60.0)

    print(f"events processed      : {result.events_processed:,}")
    print(f"control epochs        : {len(result.control_outputs)}")
    print(f"probe traffic         : {result.probe_bytes / 1e6:.0f} MB "
          "(group-based: representatives only)")
    print(f"degradations detected : {result.detections}")
    print("fleet at end          : "
          f"{sum(result.gateway_counts.values())} gateways "
          f"{dict(sorted(result.gateway_counts.items()))}")
    print()
    header = (f"{'session':<12}{'samples':>8}{'avg lat':>9}{'max lat':>9}"
              f"{'avg hops':>9}{'on backup':>10}")
    print(header)
    print("-" * len(header))
    for pair, record in result.sessions.items():
        if not record.times:
            continue
        lat = record.latency_array()
        print(f"{pair[0]}->{pair[1]:<7}{len(record.times):>8}"
              f"{lat.mean():>8.0f}ms{lat.max():>8.0f}ms"
              f"{np.mean(record.hop_counts):>9.2f}"
              f"{record.backup_fraction() * 100:>9.1f}%")


if __name__ == "__main__":
    main()
