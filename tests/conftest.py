"""Shared fixtures: small, fast variants of every subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.demand import DemandModel
from repro.underlay.config import UnderlayConfig
from repro.underlay.regions import default_regions
from repro.underlay.topology import Underlay, build_underlay

#: Four regions spanning three continents: enough for relaying, small
#: enough that tests stay fast.
SMALL_REGION_CODES = ("HGH", "SIN", "FRA", "IAD")


@pytest.fixture(scope="session")
def small_regions() -> list:
    by_code = {r.code: r for r in default_regions()}
    return [by_code[c] for c in SMALL_REGION_CODES]


@pytest.fixture(scope="session")
def small_underlay(small_regions) -> Underlay:
    """A 4-region underlay with a six-hour horizon (fast to build)."""
    config = UnderlayConfig(horizon_s=6 * 3600.0)
    return build_underlay(small_regions, config, seed=2)


@pytest.fixture(scope="session")
def full_underlay() -> Underlay:
    """The canonical 11-region underlay (shared across the session)."""
    return build_underlay(seed=1)


@pytest.fixture(scope="session")
def small_demand(small_regions) -> DemandModel:
    return DemandModel(small_regions, seed=5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture()
def register_specs(monkeypatch):
    """Add `ExperimentSpec`s to the experiment registry for one test
    (a spec replaces a registered one of its name); the registry is
    restored afterwards.  Forked pool workers inherit the additions."""
    from repro.experiments import registry

    monkeypatch.setattr(registry, "_REGISTRY", list(registry._REGISTRY))
    monkeypatch.setattr(registry, "_BY_NAME", dict(registry._BY_NAME))

    def register(*specs):
        for spec in specs:
            old = registry._BY_NAME.get(spec.name)
            if old is None:
                registry._REGISTRY.append(spec)
            else:
                registry._REGISTRY[registry._REGISTRY.index(old)] = spec
            registry._BY_NAME[spec.name] = spec
    return register
