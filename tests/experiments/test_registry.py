"""Tests for the declarative experiment registry."""

import math
import sys
from importlib import import_module

import pytest

from repro.experiments import registry
from repro.experiments.base import derive_seed
from repro.experiments.registry import ExperimentSpec


def run(x):
    """An experiment entry point whose result is not lines."""
    return math.sqrt(x)


class TestRegistryContents:
    def test_canonical_suite_is_complete(self):
        names = [s.name for s in registry.all_specs()]
        assert names[0] == "fig01/02"
        assert "fig13" in names and "tab2/3" in names
        assert len(names) == len(set(names)) >= 22

    def test_every_spec_resolves_both_modes(self):
        """One entry point per experiment, whatever the scale."""
        for spec in registry.all_specs():
            assert spec.resolve() is getattr(import_module(spec.module),
                                             registry.ENTRYPOINT)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            registry.get("no-such-experiment")

    def test_quick_and_full_kwargs_diverge_where_declared(self):
        spec = registry.get("tab2/3")
        assert spec.kwargs(full=False) == {"hours": 3.0}
        assert spec.kwargs(full=True) == {"hours": 24.0}

    def test_full_scale_changes_only_the_keywords(self, monkeypatch):
        """Both scales call the module's `run`; --full passes its own
        keywords (fig13's fourteen days)."""
        assert registry.get("fig13").kwargs(full=True) == {"days": 14}
        monkeypatch.setattr(sys.modules[__name__], "run",
                            lambda **kw: [repr(kw)])
        spec = ExperimentSpec("__scales", __name__, quick_kwargs={"x": 1},
                              full_kwargs={"x": 2})
        assert spec.execute(full=False) == ["{'x': 1}"]
        assert spec.execute(full=True) == ["{'x': 2}"]


class TestSelect:
    def test_only_is_substring_match(self):
        names = [s.name for s in registry.select(only=["fig1"])]
        assert "fig11" in names and "fig13" in names
        assert "fig04" not in names

    def test_tags_filter(self):
        fast = registry.select(tags=["fast"])
        assert fast and all("fast" in s.tags for s in fast)

    def test_filters_compose(self):
        specs = registry.select(only=["ablation"], tags=["slow"])
        assert [s.name for s in specs] == ["ablation-stability"]

    def test_no_match_is_empty(self):
        assert registry.select(only=["zzz"]) == []


class TestSeeds:
    def test_derive_seed_is_stable_and_named(self):
        assert derive_seed("fig04") == derive_seed("fig04")
        assert derive_seed("fig04") != derive_seed("fig05")
        assert 0 <= derive_seed("fig04") < 2 ** 31

    def test_derived_seed_ignores_registry_order(self):
        for spec in registry.all_specs():
            assert spec.resolved_seed() == derive_seed(spec.name)


class TestExecute:
    def test_execute_returns_lines(self):
        lines = registry.get("fig04").execute()
        assert lines and all(isinstance(line, str) for line in lines)

    def test_non_lines_result_rejected(self):
        spec = ExperimentSpec("__bad", __name__, quick_kwargs={"x": 2.0})
        with pytest.raises(TypeError):
            spec.execute()
