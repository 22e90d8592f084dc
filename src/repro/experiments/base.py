"""Shared experiment plumbing: formatting and common builders."""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.eventsim import EventDrivenXRON, EventSimResult
from repro.core.variants import VariantSpec, xron
from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.events import DegradationEvent
from repro.underlay.linkstate import LinkType
from repro.underlay.regions import default_regions
from repro.underlay.scenarios import inject_events, quiet_link
from repro.underlay.topology import Underlay, build_underlay


#: Simulated start of every quiet-testbed run (past the underlay
#: warm-up; the testbed's horizon is two hours).
TESTBED_START_S = 3600.0
#: The short control epoch the recovery and partition studies run on,
#: and the SIB overrides that make the demand model fittable within
#: such a short run.
SHORT_EPOCH_S = 30.0
SHORT_RUN_SIB_PARAMS = {"min_history": 4, "refit_every": 2}


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> List[str]:
    """Plain-text aligned table, one string per line."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return lines


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def derive_seed(name: str, base: int = 0) -> int:
    """Stable per-experiment seed: a CRC of the experiment name.

    Independent of registry order, process, and Python hash
    randomisation, so sequential and parallel runs (and runs across
    machines) install identical global-RNG state per experiment.
    """
    return (zlib.crc32(name.encode("utf-8")) ^ base) & 0x7FFFFFFF


def standard_underlay(seed: int = 1) -> Underlay:
    """The canonical 11-region underlay used across experiments."""
    return build_underlay(seed=seed)


def standard_demand(seed: int = 3) -> DemandModel:
    """The canonical demand model used across experiments."""
    return DemandModel(default_regions(), seed=seed)


def planet_underlay(n_regions: int, seed: int = 1,
                    horizon_s: float = 3600.0) -> Underlay:
    """A generated N-region underlay for scaling studies.

    The short default horizon keeps O(N^2) timeline generation cheap —
    scaling studies measure one control epoch, not multi-day windows.
    N=11 reproduces `standard_underlay`'s topology model exactly (same
    regions, same link draw sequence).  See docs/scaling.md.
    """
    from repro.underlay.planet import build_planet_underlay
    return build_planet_underlay(
        n_regions, seed=seed,
        underlay_config=UnderlayConfig(horizon_s=horizon_s))


def quiet_testbed(seed: int) -> Tuple[Underlay, DemandModel]:
    """The calm 3-region (HGH/SIN/FRA) underlay + demand the mechanism
    studies share: a genuinely quiet Internet — no degradation events
    AND no baseline/diurnal loss that could trip the EWMA detector — so
    every injected event or fault is unambiguous.  Two hours of horizon.
    """
    by_code = {r.code: r for r in default_regions()}
    regions = [by_code[c] for c in ("HGH", "SIN", "FRA")]
    config = UnderlayConfig(horizon_s=7200.0)
    config.internet.base_loss_min = 1e-6
    config.internet.base_loss_max = 1e-5
    config.internet.diurnal_loss_amp = 0.0
    for tier in (config.internet, config.premium):
        tier.short_events_per_day = 0.0
        tier.long_events_per_day = 0.0
    underlay = build_underlay(regions, config, seed=seed)
    for (a, b) in underlay.pairs:
        for lt in (LinkType.INTERNET, LinkType.PREMIUM):
            quiet_link(underlay, a, b, lt)
    return underlay, DemandModel(regions, seed=seed)


def testbed_engine(seed: int, epoch_s: float, *,
                   testbed: Optional[Tuple[Underlay, DemandModel]] = None,
                   variant: Optional[VariantSpec] = None,
                   demand_scale: float = 0.05, initial_gateways: int = 4,
                   **engine_kwargs) -> EventDrivenXRON:
    """The mechanism studies' deployment: the event engine on the quiet
    testbed (`testbed` when the caller has already scripted incidents
    into one, else a fresh ``quiet_testbed(seed)``) with a static fleet
    of four gateways a region at 5 % demand.  Static because the
    autoscaler would shrink a lightly loaded region to one gateway,
    and `crash_gateways` always spares the last survivor — a scheduled
    crash would silently become a no-op; pass ``variant=xron()`` to put
    elastic capacity control back."""
    underlay, demand = testbed if testbed is not None else quiet_testbed(seed)
    return EventDrivenXRON(
        underlay, demand,
        variant=(variant if variant is not None
                 else replace(xron(), elastic=False)),
        sim_config=SimulationConfig(epoch_s=epoch_s, seed=seed,
                                    demand_scale=demand_scale,
                                    initial_gateways=initial_gateways),
        **engine_kwargs)


def reaction_train(seed: int, n_events: int, event_spacing_s: float,
                   event_duration_s: float, measure_interval_s: float, *,
                   epoch_s: float, **engine_kwargs
                   ) -> Tuple[EventSimResult, np.ndarray, np.ndarray]:
    """The reaction-timing recipe: a train of `n_events` 4000 ms
    degradations on the busiest pair of the quiet testbed, the
    `testbed_engine` (which takes `engine_kwargs`) run over it with
    that one session tracked, and — per handled event — the
    onset-to-backup and the recovery-to-normal delay.
    Returns ``(result, failover_s, failback_s)``."""
    underlay, demand = quiet_testbed(seed)
    pair = max(demand.pairs, key=lambda p: demand.pair_scale(*p))
    start = TESTBED_START_S
    onsets = [start + 30.0 + k * event_spacing_s for k in range(n_events)]
    inject_events(underlay, pair[0], pair[1], LinkType.INTERNET,
                  [DegradationEvent(t, event_duration_s, 4000.0, 0.3)
                   for t in onsets])
    system = testbed_engine(
        seed, epoch_s, testbed=(underlay, demand), tracked_pairs=[pair],
        measure_interval_s=measure_interval_s, **engine_kwargs)
    result = system.run(start, 30.0 + n_events * event_spacing_s + 60.0)
    record = result.sessions[pair]
    times = np.asarray(record.times)
    on_backup = np.asarray(record.on_backup, dtype=bool)
    failovers, failbacks = [], []
    for onset in onsets:
        end = onset + event_duration_s
        window = (times >= onset) & (times < onset + event_spacing_s * 0.9)
        hits = times[window][on_backup[window]]
        if hits.size == 0:
            continue
        failovers.append(float(hits[0] - onset))
        after = (times >= end) & (times < end + event_spacing_s * 0.9)
        clear = times[after][~on_backup[after]]
        if clear.size:
            failbacks.append(float(clear[0] - end))
    return result, np.array(failovers), np.array(failbacks)
