"""Simulation-run configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.controlplane.controller import CONTROL_MODES
from repro.dataplane.config import MonitoringConfig, ReactionConfig


@dataclass
class SimulationConfig:
    """Knobs of an `EpochSimulator` run.

    Two fidelity presets are common:

    * fine mode — ``eval_step_s=1.0`` with the default 0.4 s probing grid,
      for tail-latency and reaction-timing experiments (Tables 2/3,
      Figs. 16, 18);
    * epoch mode — ``eval_step_s=30..60`` for multi-day QoE and cost
      experiments (Figs. 13-15, 17).
    """

    #: Controller epoch length, seconds (production: five minutes).
    epoch_s: float = 300.0
    #: Path-evaluation sampling step within an epoch, seconds.
    eval_step_s: float = 5.0
    #: Initial gateway containers per region.
    initial_gateways: int = 4
    #: Multiplier on the demand model's rates (XRON served 10% of traffic
    #: at submission time; 1.0 means full-scale).
    demand_scale: float = 1.0
    #: Root seed for the run's own randomness (probe noise etc.).
    seed: int = 0
    #: NIB report window per link (see NetworkInformationBase).
    nib_window: int = 1
    #: Plan against this pessimistic percentile of the NIB window instead
    #: of the last sample (flap damping); requires nib_window >= 2.
    robust_percentile: Optional[float] = None
    #: Decompose predicted demand into aggregated stream cohorts instead
    #: of per-session chunks — required at planet scale, where the SIB
    #: cannot hold an entry per session (see docs/scaling.md).
    stream_cohorts: bool = False
    #: Cohort entries per ordered region pair when `stream_cohorts` is on.
    cohorts_per_pair: int = 2
    #: Controller solve strategy: "monolithic" or "incremental" (see
    #: `repro.controlplane.controller.CONTROL_MODES`).  Both produce
    #: bit-identical control outputs; incremental exists to hold the
    #: epoch budget at planetary scale.
    control_mode: str = "monolithic"
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    reaction: ReactionConfig = field(default_factory=ReactionConfig)

    def __post_init__(self) -> None:
        if self.epoch_s <= 0 or self.eval_step_s <= 0:
            raise ValueError("epoch and eval step must be positive")
        if self.eval_step_s > self.epoch_s:
            raise ValueError("eval step cannot exceed the epoch length")
        if self.initial_gateways < 1:
            raise ValueError("need at least one initial gateway per region")
        if self.cohorts_per_pair < 1:
            raise ValueError("need at least one cohort per pair")
        if self.control_mode not in CONTROL_MODES:
            raise ValueError(f"unknown control_mode {self.control_mode!r}; "
                             f"choose from {CONTROL_MODES}")
