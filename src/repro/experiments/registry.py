"""Declarative experiment registry.

Every paper table/figure is described by an :class:`ExperimentSpec` —
name, target module, quick and full kwargs, tags — rather
than a closure, so the same registry drives the sequential runner, the
process-pool orchestrator (specs must be resolvable by name inside
worker processes), ``--list``, and the run manifest.

The registry is ordered: iteration order is the canonical report order,
identical for sequential and parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.base import derive_seed


#: The function of an experiment's module that runs it: a callable
#: returning either a result object with a ``lines()`` method or a
#: plain list of strings.
ENTRYPOINT = "run"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: where it lives and how to run it at each scale.

    ``module`` names the module whose `ENTRYPOINT` runs it at both
    scales; ``--full`` changes only its keywords.  The deterministic
    global-RNG seed installed before the experiment runs is derived
    from its name, so adding experiments never shifts another
    experiment's seed.
    """

    name: str
    module: str
    quick_kwargs: Mapping[str, object] = field(default_factory=dict)
    full_kwargs: Mapping[str, object] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def resolved_seed(self) -> int:
        return derive_seed(self.name)

    def kwargs(self, full: bool) -> Dict[str, object]:
        return dict(self.full_kwargs if full else self.quick_kwargs)

    def resolve(self) -> Callable[..., object]:
        return getattr(import_module(self.module), ENTRYPOINT)

    def execute(self, full: bool = False) -> List[str]:
        """Run the experiment and return its printable lines."""
        result = self.resolve()(**self.kwargs(full))
        lines = result.lines() if hasattr(result, "lines") else result
        if not isinstance(lines, list):
            raise TypeError(f"experiment {self.name!r} produced "
                            f"{type(lines).__name__}, expected lines")
        return lines


_EXP = "repro.experiments."

_REGISTRY: List[ExperimentSpec] = [
    ExperimentSpec("fig01/02", _EXP + "fig01_02_linkstates",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig03", _EXP + "fig03_badtime",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig04", _EXP + "fig04_pricing",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig05", _EXP + "fig05_demand",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig07", _EXP + "fig07_similarity",
                   quick_kwargs={"window_s": 14400.0},
                   full_kwargs={"window_s": 86400.0},
                   tags=("motivation", "fast")),
    ExperimentSpec("fig08", _EXP + "fig08_asymmetry",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig09", _EXP + "fig09_degradations",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig11", _EXP + "fig11_weekly",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig12", _EXP + "fig12_prediction",
                   tags=("motivation", "fast")),
    ExperimentSpec("fig13", _EXP + "fig13_qoe",
                   quick_kwargs={"days": 1.0},
                   full_kwargs={"days": 14},
                   tags=("evaluation", "qoe", "slow")),
    ExperimentSpec("fig14/15", _EXP + "fig14_15_badcases",
                   quick_kwargs={"days": 0.25},
                   full_kwargs={"days": 0.5},
                   tags=("evaluation", "qoe", "slow")),
    ExperimentSpec("tab2/3", _EXP + "tab23_network",
                   quick_kwargs={"hours": 3.0},
                   full_kwargs={"hours": 24.0},
                   tags=("evaluation", "network", "slow")),
    ExperimentSpec("fig16", _EXP + "fig16_casestudies",
                   tags=("evaluation", "network", "slow")),
    ExperimentSpec("fig17", _EXP + "fig17_cost",
                   quick_kwargs={"hours": 8.0},
                   full_kwargs={"hours": 24.0},
                   tags=("evaluation", "cost", "slow")),
    ExperimentSpec("fig18", _EXP + "fig18_fast_reaction",
                   quick_kwargs={"hours": 4.0},
                   full_kwargs={"hours": 24.0},
                   tags=("evaluation", "ablation", "slow")),
    ExperimentSpec("fig19", _EXP + "fig19_asymmetric",
                   quick_kwargs={"n_epochs": 8},
                   full_kwargs={"n_epochs": 24},
                   tags=("evaluation", "ablation", "fast")),
    ExperimentSpec("fig20", _EXP + "fig20_scaling",
                   tags=("evaluation", "scaling", "fast")),
    ExperimentSpec("ablation-ordering", _EXP + "ablation_ordering",
                   quick_kwargs={"n_epochs": 3},
                   full_kwargs={"n_epochs": 6},
                   tags=("ablation", "fast")),
    ExperimentSpec("ablation-probing", _EXP + "ablation_probing",
                   quick_kwargs={"max_pairs": 8, "window_s": 7200.0},
                   full_kwargs={"max_pairs": 20, "window_s": 14400.0},
                   tags=("ablation", "fast")),
    ExperimentSpec("ablation-weights", _EXP + "ablation_weights",
                   quick_kwargs={"n_epochs": 2},
                   full_kwargs={"n_epochs": 4},
                   tags=("ablation", "fast")),
    ExperimentSpec("ablation-stability", _EXP + "ablation_stability",
                   quick_kwargs={"hours": 1.5},
                   full_kwargs={"hours": 3.0},
                   tags=("ablation", "slow")),
    ExperimentSpec("reaction-latency", _EXP + "reaction_latency",
                   quick_kwargs={"n_events": 8},
                   full_kwargs={"n_events": 20},
                   tags=("evaluation", "network", "fast")),
    ExperimentSpec("chaos-reaction", _EXP + "chaos_reaction",
                   quick_kwargs={"n_events": 2},
                   full_kwargs={"n_events": 6},
                   tags=("evaluation", "robustness", "fast")),
    ExperimentSpec("recovery", _EXP + "recovery",
                   quick_kwargs={"flap_events": 3, "post_epochs": 5},
                   full_kwargs={"flap_events": 8, "post_epochs": 8},
                   tags=("evaluation", "robustness", "fast")),
    ExperimentSpec("partition", _EXP + "partition",
                   quick_kwargs={"partition_epochs": 4, "post_epochs": 3},
                   full_kwargs={"partition_epochs": 8, "post_epochs": 6},
                   tags=("evaluation", "robustness", "fast")),
]

_BY_NAME: Dict[str, ExperimentSpec] = {s.name: s for s in _REGISTRY}


def all_specs() -> List[ExperimentSpec]:
    """Every registered experiment, in canonical report order."""
    return list(_REGISTRY)


def get(name: str) -> ExperimentSpec:
    """Exact-name lookup (raises ``KeyError`` for unknown names)."""
    return _BY_NAME[name]


def select(only: Optional[Sequence[str]] = None,
           tags: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Filter the registry.

    ``only`` keeps specs whose name contains any given substring (the
    historical ``--only`` semantics); ``tags`` keeps specs carrying any
    of the given tags.  Both filters compose.
    """
    specs = all_specs()
    if only:
        specs = [s for s in specs if any(sel in s.name for sel in only)]
    if tags:
        wanted = set(tags)
        specs = [s for s in specs if wanted.intersection(s.tags)]
    return specs
