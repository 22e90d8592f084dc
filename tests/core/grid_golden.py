"""Shared harness for the grid-engine goldens.

The grid engine (`EpochSimulator`, `TrafficMatrix.from_model`) evaluates
its stateless processes an array at a time.  Batching must not move a
single bit of any simulated outcome, so ``tests/_golden/grid_engine.json``
stores SHA-256 digests of demand matrices and of short simulator runs
captured on the tree *before* the per-element loops were batched
(PR 16's head).  ``tests/core/test_grid_golden.py`` replays the same
configurations and asserts the digests still match.

Regenerate (only when an intentional behaviour change lands):

    PYTHONPATH=src python -m tests.core.grid_golden --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import numpy as np

FIXTURE = Path(__file__).resolve().parents[1] / "_golden" / "grid_engine.json"

DAY_S = 86400.0


# --------------------------------------------------------------- demand
def _demand_instants() -> Dict[str, np.ndarray]:
    """Named groups of instants every demand digest is taken over."""
    return {
        # Working hours of a weekday, on the epoch grid.
        "weekday": np.arange(0.0, DAY_S, 3600.0),
        # Days 5 and 6 of the simulated week.
        "weekend": 5 * DAY_S + np.arange(0.0, 2 * DAY_S, 4 * 3600.0),
        # One-minute steps through two busy hours: with three surges a
        # day per pair this lands inside dozens of five-minute ramps
        # and ten-minute decays, off the 30-minute noise anchors.
        "surge_ramp": DAY_S + 1.5 * 3600.0 + np.arange(0.0, 7200.0, 60.0),
    }


def _demand_models() -> Dict[str, Callable]:
    from repro.traffic.demand import DemandModel
    from repro.underlay.planet import generate_regions
    from repro.underlay.regions import default_regions

    return {
        "n11": lambda: DemandModel(default_regions(), seed=1),
        "planet30": lambda: DemandModel(
            generate_regions(30, seed=4), seed=4),
    }


def demand_digest(model_name: str, group: str, scale: float = 1.0) -> str:
    """SHA-256 over every pair's demand (float64 bytes, `model.pairs`
    order) at every instant of `group`."""
    from repro.traffic.matrix import TrafficMatrix

    model = _demand_models()[model_name]()
    pairs = list(model.pairs)
    h = hashlib.sha256()
    for t in _demand_instants()[group]:
        matrix = TrafficMatrix.from_model(model, float(t), scale)
        row = np.array([matrix.get(a, b) for (a, b) in pairs])
        h.update(row.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------ simulator
#: name -> (variant factory name, regions, start hour, epochs, cohorts)
SIM_RUNS = {
    "small-xron": ("xron", "small", 8.0, 4, False),
    "small-xron-basic": ("xron_basic", "small", 8.0, 4, False),
    "small-xron-premium": ("xron_premium", "small", 8.0, 3, False),
    "small-xron-symmetric": ("xron_symmetric", "small", 8.0, 3, False),
    "small-internet-only": ("internet_only", "small", 8.0, 3, False),
    "small-premium-only": ("premium_only", "small", 8.0, 3, False),
    "small-xron-cohorts": ("xron", "small", 9.0, 2, True),
    "n11-xron": ("xron", "n11", 8.0, 2, False),
    "n11-xron-basic": ("xron_basic", "n11", 8.0, 2, False),
}

SMALL_CODES = ("HGH", "SIN", "FRA", "IAD")


def _simulate(name: str):
    from repro.core import variants
    from repro.core.config import SimulationConfig
    from repro.core.system import XRONSystem
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.linkstate import LinkType
    from repro.underlay.regions import default_regions
    from repro.underlay.scenarios import (inject_events,
                                          short_frequent_degradations)

    variant, scale, start_h, epochs, cohorts = SIM_RUNS[name]
    regions = default_regions()
    if scale == "small":
        by_code = {r.code: r for r in regions}
        regions = [by_code[c] for c in SMALL_CODES]
    system = XRONSystem(
        regions=regions, seed=3,
        underlay_config=UnderlayConfig(horizon_s=11 * 3600.0),
        sim_config=SimulationConfig(epoch_s=300.0, eval_step_s=5.0, seed=3,
                                    stream_cohorts=cohorts))
    if scale == "small":
        # Brief drops every three minutes on every Internet link out of
        # HGH, so the fast-reacting variants provably ride backup
        # (relay) paths inside the digested window.
        start_s = start_h * 3600.0
        for dst in SMALL_CODES[1:]:
            inject_events(
                system.underlay, "HGH", dst, LinkType.INTERNET,
                short_frequent_degradations(start_s + 20.0, start_s + 1500.0),
                keep_existing=True)
    with system.simulator(getattr(variants, variant)()) as simulator:
        return simulator.run(start_h * 3600.0, epochs * 300.0)


def _hex(x: float) -> str:
    return float(x).hex()


def simulation_doc(name: str) -> Dict[str, object]:
    """Canonical summary of one short `EpochSimulator` run."""
    result = _simulate(name)
    ledger = result.ledger
    cost = ledger.breakdown()

    def sha(a: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    return {
        "shape": list(result.latency_ms.shape),
        "latency_ms": sha(result.latency_ms),
        "loss_rate": sha(result.loss_rate),
        "on_backup": sha(result.on_backup),
        "on_backup_samples": int(result.on_backup.sum()),
        "demand_mbps": sha(result.demand_mbps),
        "containers": sha(result.containers.astype(np.int64)),
        "internet_gb_per_epoch": sha(result.internet_gb_per_epoch),
        "premium_gb_per_epoch": sha(result.premium_gb_per_epoch),
        "path_change_fraction": sha(result.path_change_fraction),
        "normal_hop_samples": [[h, _hex(m)]
                               for h, m in result.normal_hop_samples],
        "reaction_hop_samples": [[h, _hex(m)]
                                 for h, m in result.reaction_hop_samples],
        "ledger": {"internet_gb": _hex(ledger.internet_gb()),
                   "premium_gb": _hex(ledger.premium_gb()),
                   "internet_cost": _hex(cost.internet_cost),
                   "premium_cost": _hex(cost.premium_cost),
                   "container_cost": _hex(cost.container_cost)},
    }


def simulation_digest(name: str) -> str:
    doc = simulation_doc(name)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


# --------------------------------------------------------------- fixture
def demand_keys():
    return [(m, g, s) for m in _demand_models()
            for g in _demand_instants() for s in (1.0, 0.05)
            if s == 1.0 or g == "weekday"]


def all_digests() -> Dict[str, str]:
    out = {}
    for model, group, scale in demand_keys():
        out[f"demand/{model}/{group}/x{scale:g}"] = demand_digest(
            model, group, scale)
    for name in SIM_RUNS:
        out[f"sim/{name}"] = simulation_digest(name)
    return out


def load_fixture() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    import sys

    digests = all_digests()
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
        print(f"wrote {len(digests)} digests to {FIXTURE}")
    else:
        print(json.dumps(digests, indent=2, sort_keys=True))
