"""Simulation-run configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.controlplane.controller import Controller
from repro.controlplane.model import ControlConfig
from repro.dataplane.config import MonitoringConfig, ReactionConfig
from repro.elastic.containers import ContainerPool
from repro.sim.rng import RngStreams
from repro.traffic.cohorts import CohortWorkload
from repro.underlay.pricing import PricingModel


@dataclass
class SimulationConfig:
    """Knobs of a simulated deployment; both engines read them the
    same way (`build_controller`, `build_pools`).

    Two fidelity presets are common:

    * fine mode — ``eval_step_s=1.0`` with the default 0.4 s probing grid,
      for tail-latency and reaction-timing experiments (Tables 2/3,
      Figs. 16, 18);
    * epoch mode — ``eval_step_s=30..60`` for multi-day QoE and cost
      experiments (Figs. 13-15, 17).
    """

    #: Controller epoch length, seconds (production: five minutes).
    epoch_s: float = 300.0
    #: Path-evaluation sampling step within an epoch, seconds.  Only the
    #: grid engine (`EpochSimulator`) reads it; the event engine samples
    #: on its own `measure_interval_s`.
    eval_step_s: float = 5.0
    #: Initial gateway containers per region.
    initial_gateways: int = 4
    #: Multiplier on the demand model's rates (XRON served 10% of traffic
    #: at submission time; 1.0 means full-scale).
    demand_scale: float = 1.0
    #: Root seed for the run's own randomness (probe noise etc.).
    seed: int = 0
    #: NIB report window per link, the one link-state planning knob: 1
    #: plans on each link's last report, k > 1 on the pessimistic p90 of
    #: its last k (flap damping; see `Controller.link_snapshot`).
    nib_window: int = 1
    #: Decompose predicted demand into aggregated stream cohorts instead
    #: of per-session chunks — required at planet scale, where the SIB
    #: cannot hold an entry per session (see docs/scaling.md).
    stream_cohorts: bool = False
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    reaction: ReactionConfig = field(default_factory=ReactionConfig)

    def __post_init__(self) -> None:
        if self.epoch_s <= 0 or self.eval_step_s <= 0:
            raise ValueError("epoch and eval step must be positive")
        if self.eval_step_s > self.epoch_s:
            raise ValueError("eval step cannot exceed the epoch length")
        if self.initial_gateways < 1:
            raise ValueError("need at least one initial gateway per region")


def build_controller(codes: Sequence[str], control_config: ControlConfig,
                     pricing: Optional[PricingModel],
                     sim_config: SimulationConfig, variant,
                     sib_params: Optional[Dict[str, int]] = None, *,
                     seed: Optional[int] = None) -> Controller:
    """The controller of the deployment `sim_config` and `variant` (a
    `VariantSpec`) describe — the one construction both engines, a
    modeled restart and a partition's sub-controller share.  `seed`
    defaults to the config's; a sub-controller passes its own."""
    seed = sim_config.seed if seed is None else seed
    workload = CohortWorkload(seed=seed) if sim_config.stream_cohorts else None
    return Controller(
        list(codes), control_config, pricing=pricing,
        nib_window=sim_config.nib_window,
        sib_params=sib_params, workload=workload, seed=seed,
        **variant.controller_kwargs())


def build_pools(codes: Sequence[str], rng: RngStreams,
                sim_config: SimulationConfig,
                control_config: ControlConfig) -> Dict[str, ContainerPool]:
    """One container pool per region, each on its own ``pool.<code>``
    stream of `rng` — the fleet both engines boot with."""
    return {code: ContainerPool(
                code, rng.get(f"pool.{code}"),
                initial=sim_config.initial_gateways,
                max_containers=control_config.max_containers)
            for code in codes}
