"""Every module in the package imports cleanly (no dead imports, no
syntax drift) and the public packages re-export what they promise."""

import ast
import importlib
import importlib.util
import pathlib
import os
import pkgutil
import re
import subprocess
import sys
import sysconfig

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALL_MODULES = sorted(
    name for __, name, __ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
    if not name.endswith("__main__"))


#: Run in a fresh interpreter: the CLI, an event engine, a grid
#: simulator and one grid epoch, then every loaded module and its
#: file (or "built-in" / "frozen").
_COLD_START = """
import sys
import repro.cli
from repro.core import XRONSystem, xron
system = XRONSystem()
system.event_engine(xron())
with system.simulator(xron()) as simulator:
    simulator.run(8 * 3600.0, simulator.sim_config.epoch_s)
for name, module in list(sys.modules.items()):
    spec = getattr(module, "__spec__", None)
    print(name, getattr(module, "__file__", None)
          or getattr(spec, "origin", None) or "")
"""

#: A bare interpreter's modules (site hooks such as `_distutils_hack`
#: included).
_BARE = "import sys; print(*sys.modules, sep=chr(10))"

#: Modules no file backs: the shared state numpy's Cython extensions
#: register, and multiprocessing's alias of `__main__`.
_RUNTIME_MADE = re.compile(r"^(cython_runtime|_cython_[0-9_]+|__mp_main__)$")


def _in_fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.splitlines()


def _is_stdlib(path):
    """Built in, frozen, or a file of the standard library, told by its
    path against `sysconfig.get_paths()` (Python 3.9 has no
    `sys.stdlib_module_names`); site-packages lies inside the stdlib
    directory, so it is excluded."""
    if path in ("built-in", "frozen"):
        return True
    dirs = {key: os.path.realpath(value) + os.sep
            for key, value in sysconfig.get_paths().items()}
    path = os.path.realpath(path) if path else ""
    return (path.startswith((dirs["stdlib"], dirs["platstdlib"]))
            and not path.startswith((dirs["purelib"], dirs["platlib"])))


def test_cold_start_loads_numpy_only():
    """The CLI, both engines and a grid epoch load the standard library,
    numpy and `src/repro`, nothing else: every module beyond a bare
    interpreter's start-up set is one of those three."""
    bare = set(_in_fresh_interpreter(_BARE))
    package = os.path.realpath(ROOT / "src" / "repro") + os.sep
    foreign = []
    for line in _in_fresh_interpreter(_COLD_START):
        name, __, path = line.partition(" ")
        if name in bare or _is_stdlib(path) or (
                not path and _RUNTIME_MADE.match(name)):
            continue
        if name == "numpy" or name.startswith("numpy."):
            continue
        if path and os.path.realpath(path).startswith(package):
            continue
        foreign.append(f"{name} ({path or 'no file'})")
    assert not foreign, f"loaded beyond numpy: {sorted(foreign)}"


def test_no_module_loads_asyncio():
    """The service drives its loop itself: importing every module of
    the package, in a fresh interpreter, loads no event loop."""
    loaded = _in_fresh_interpreter(
        f"import importlib, sys\n"
        f"for name in {ALL_MODULES!r}:\n"
        f"    importlib.import_module(name)\n"
        f"print(*sys.modules, sep=chr(10))")
    assert "repro.core.service" in loaded
    assert "asyncio" not in loaded


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


def test_package_has_expected_subpackages():
    names = set(ALL_MODULES)
    for sub in ("repro.sim", "repro.underlay", "repro.traffic",
                "repro.elastic", "repro.dataplane", "repro.controlplane",
                "repro.qoe", "repro.cost", "repro.core", "repro.analysis",
                "repro.experiments", "repro.cli"):
        assert sub in names


@pytest.mark.parametrize("package_name", [
    "repro.sim", "repro.underlay", "repro.traffic", "repro.elastic",
    "repro.dataplane", "repro.controlplane", "repro.qoe", "repro.cost",
    "repro.core", "repro.analysis"])
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version():
    assert repro.__version__


def _imported_modules(module_name):
    """Every module named by an import statement anywhere in
    `module_name`'s source (function-local lazy imports included)."""
    spec = importlib.util.find_spec(module_name)
    tree = ast.parse(pathlib.Path(spec.origin).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, \
                f"{module_name}: the package uses absolute imports only"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return found


def _is_under(name, package):
    return name == package or name.startswith(package + ".")


def test_layering():
    """Library code never reaches up into the experiment harness, and
    the control plane solves in process: no process or thread pools."""
    for module_name in ALL_MODULES:
        banned = []
        if not (_is_under(module_name, "repro.experiments")
                or _is_under(module_name, "repro.cli")):
            banned.append("repro.experiments")
        if _is_under(module_name, "repro.controlplane"):
            banned += ["multiprocessing", "concurrent.futures"]
        imported = _imported_modules(module_name)
        for package in banned:
            assert not any(_is_under(name, package) for name in imported), \
                f"{module_name} imports {package}"


def _runtime_imports(module_name):
    """Like `_imported_modules`, minus ``if TYPE_CHECKING:`` blocks."""
    spec = importlib.util.find_spec(module_name)
    tree = ast.parse(pathlib.Path(spec.origin).read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            node.body = []
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
    return found


def test_event_engine_names_no_subsystem():
    """The engine reaches its subsystems only through the extension
    list: `repro.core.extensions` is the one module of `repro.core`
    that maps constructor kwargs to them."""
    subsystems = ("repro.faults.runtime", "repro.faults.extension",
                  "repro.resilience", "repro.controlplane.membership",
                  "repro.controlplane.regional", "repro.obs.slo")
    imported = _runtime_imports("repro.core.eventsim")
    for package in subsystems:
        assert not any(_is_under(name, package) for name in imported), \
            f"repro.core.eventsim imports {package}"
    for module_name in ALL_MODULES:
        if (not _is_under(module_name, "repro.core")
                or module_name == "repro.core.extensions"):
            continue
        source = pathlib.Path(
            importlib.util.find_spec(module_name).origin).read_text()
        for name in ("TwoPhaseInstaller", "MembershipTable",
                     "RegionalController"):
            assert name not in source, f"{module_name} names {name}"


def _uses(package_name, module_name):
    """Whether a package's ``__init__`` does more with `module_name`
    than re-export it: a name it imports from there appears in its own
    code (`repro.obs` builds its hub on `repro.obs.stream`)."""
    spec = importlib.util.find_spec(package_name)
    tree = ast.parse(pathlib.Path(spec.origin).read_text())
    bound = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == module_name
             for alias in node.names}
    return any(isinstance(node, ast.Name) and node.id in bound
               for node in ast.walk(tree))


def _e2e_imports():
    """Every module an import statement of `benchmarks/e2e` names."""
    found = set()
    for path in (ROOT / "benchmarks" / "e2e").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                found.add(node.module)
    return found


def test_every_module_has_an_importer():
    """Nothing in `src/repro` is dead weight: every module is imported
    by another module — its own package's ``__init__`` merely
    re-exporting it does not count — or is an entry point
    (``__main__``, the CLI, a module the experiment registry names, a
    module an end-to-end workload builds from by hand, as
    `control_n100` builds its `CohortWorkload`).  A reference
    implementation only the tests call belongs under ``tests/``."""
    from repro.experiments.registry import all_specs

    entry_points = ({"repro.cli"} | {spec.module for spec in all_specs()}
                    | _e2e_imports())
    everything = [name for __, name, __ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    imports = {name: _imported_modules(name) for name in everything}
    orphans = []
    for name in everything:
        package = name.rpartition(".")[0]
        if (name in entry_points or name.endswith("__main__")
                or importlib.util.find_spec(name).submodule_search_locations):
            continue
        if not (any(name in found for importer, found in imports.items()
                    if importer not in (name, package))
                or _uses(package, name)):
            orphans.append(name)
    assert not orphans, f"no importer in src/repro: {orphans}"


def _declared_dependencies():
    """The distribution names of ``[project].dependencies`` in
    pyproject.toml (read with a pattern: Python 3.9 has no TOML
    parser)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S)
    return re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1))


def test_every_dependency_is_imported():
    """A runtime dependency is one some module of `src/repro` imports
    (each declared distribution's import name is its own name)."""
    imported = {name.split(".")[0] for module in ALL_MODULES
                for name in _imported_modules(module)}
    declared = _declared_dependencies()
    assert declared
    unused = [name for name in declared if name not in imported]
    assert not unused, f"declared but never imported: {unused}"


def _removed_setting_owners():
    """Owner -> a call of it that takes keyword arguments only."""
    from repro.controlplane.controller import Controller
    from repro.controlplane.membership import membership
    from repro.controlplane.model import ControlConfig
    from repro.controlplane.nib import NetworkInformationBase
    from repro.controlplane.pathcontrol import PathControlResult, path_control
    from repro.controlplane.reactionplan import generate_reaction_plans
    from repro.controlplane.regional import regional_control
    from repro.controlplane.sib import StreamInformationBase
    from repro.core.config import SimulationConfig, build_pools
    from repro.analysis.ascii import (ascii_cdf, histogram_bar,
                                      series_panel, sparkline)
    from repro.controlplane.prediction import PredictorBank, RollingPredictor
    from repro.core.eventsim import EventDrivenXRON
    from repro.core.service import XRONService, build_soak_schedule
    from repro.core.simulator import EpochSimulator, SimulationResult
    from repro.core.system import XRONSystem
    from repro.dataplane.config import MonitoringConfig, ReactionConfig
    from repro.dataplane.passive import PassiveTracker
    from repro.elastic.autoscaler import (FixedAllocation, OptimalAllocation,
                                          ProactiveAutoscaler,
                                          ReactiveAutoscaler)
    from repro.elastic.containers import ContainerPool
    from repro.experiments import (ablation_ordering, ablation_probing,
                                   ablation_stability, ablation_weights,
                                   chaos_reaction, fig01_02_linkstates,
                                   fig03_badtime, fig04_pricing,
                                   fig05_demand, fig07_similarity,
                                   fig08_asymmetry, fig09_degradations,
                                   fig11_weekly, fig12_prediction, fig13_qoe,
                                   fig14_15_badcases, fig16_casestudies,
                                   fig17_cost, fig18_fast_reaction,
                                   fig19_asymmetric, fig20_scaling,
                                   partition, reaction_latency, recovery,
                                   tab23_network)
    from repro.experiments.base import derive_seed, standard_underlay
    from repro.experiments.orchestrator import rollup_records
    from repro.experiments.registry import ExperimentSpec, get
    from repro.faults import (gateway_crash, membership_churn,
                              probe_blackout, report_drop, report_staleness)
    from repro.obs import Telemetry, Tracer
    from repro.obs.slo import SLOEngine
    from repro.qoe.audio import audio_fluency_series, e_model_r_factor
    from repro.qoe.metrics import qoe_badness
    from repro.qoe.video import frame_rate_series, stall_series
    from repro.resilience.config import ResilienceConfig
    from repro.traffic.cohorts import CohortWorkload
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.events import TimelineDraws, generate_timeline
    from repro.underlay.linkstate import LinkProcess
    from repro.underlay.planet import build_planet_underlay, generate_regions
    from repro.underlay.pricing import PricingModel
    from repro.underlay.similarity import (GatewayLinkInstance,
                                           make_gateway_links,
                                           quality_similarity)
    from repro.underlay.topology import build_underlay

    codes = ["A", "B"]
    series = ([100.0], [0.0])
    return {
        "SimulationConfig": SimulationConfig,
        "MonitoringConfig": MonitoringConfig,
        "ReactionConfig": ReactionConfig,
        "ControlConfig": ControlConfig,
        "UnderlayConfig": UnderlayConfig,
        "XRONSystem": XRONSystem,
        "build_pools": lambda **kw: build_pools(codes, None, None, **kw),
        "DemandModel": lambda **kw: DemandModel([], **kw),
        "PricingModel": lambda **kw: PricingModel([], None, **kw),
        "generate_regions": lambda **kw: generate_regions(11, **kw),
        "build_planet_underlay": lambda **kw: build_planet_underlay(11,
                                                                    **kw),
        "LinkProcess.bad_fraction":
            lambda **kw: LinkProcess.bad_fraction(None, 0.0, 1.0, **kw),
        "LinkProcess.quality_series":
            lambda **kw: LinkProcess.quality_series(None, 0.0, 1.0, **kw),
        "GatewayLinkInstance.quality_series":
            lambda **kw: GatewayLinkInstance.quality_series(None, 0.0, 1.0,
                                                            **kw),
        "quality_similarity":
            lambda **kw: quality_similarity([], 0.0, 1.0, **kw),
        "make_gateway_links": lambda **kw: make_gateway_links(
            None, 1, None, event_latency_mu=0.0, event_latency_sigma=0.0,
            event_loss_mu=0.0, event_loss_sigma=0.0, **kw),
        "stall_series": lambda **kw: stall_series(*series, **kw),
        "frame_rate_series": lambda **kw: frame_rate_series(*series, **kw),
        "e_model_r_factor": lambda **kw: e_model_r_factor(*series, **kw),
        "audio_fluency_series":
            lambda **kw: audio_fluency_series(*series, **kw),
        "qoe_badness": qoe_badness,
        "PathControlResult": lambda **kw: PathControlResult(None, None,
                                                            **kw),
        "generate_reaction_plans":
            lambda **kw: generate_reaction_plans(None, None, **kw),
        "ResilienceConfig": ResilienceConfig,
        "membership": membership,
        "regional_control": regional_control,
        "EventDrivenXRON": lambda **kw: EventDrivenXRON(None, None, **kw),
        "Controller": lambda **kw: Controller(codes, **kw),
        "NetworkInformationBase.robust_snapshot":
            lambda **kw: NetworkInformationBase(codes).robust_snapshot(codes,
                                                                  **kw),
        "ablation_stability.run": ablation_stability.run,
        "StreamInformationBase":
            lambda **kw: StreamInformationBase(codes, **kw),
        "path_control": lambda **kw: path_control([], codes, None, None,
                                                  **kw),
        "CohortWorkload": CohortWorkload,
        "PassiveTracker": lambda **kw: PassiveTracker((1,), **kw),
        "SLOEngine": lambda **kw: SLOEngine(qoe_badness(), **kw),
        "build_soak_schedule":
            lambda **kw: build_soak_schedule(0.0, 600.0, codes, **kw),
        "EpochSimulator": lambda **kw: EpochSimulator(None, None, None,
                                                      **kw),
        "ReactiveAutoscaler": lambda **kw: ReactiveAutoscaler(1.0, **kw),
        "ProactiveAutoscaler": lambda **kw: ProactiveAutoscaler(1.0, **kw),
        "FixedAllocation": lambda **kw: FixedAllocation(1.0, 1.0, **kw),
        "OptimalAllocation":
            lambda **kw: OptimalAllocation(1.0, [1.0], **kw),
        "ContainerPool": lambda **kw: ContainerPool("A", None, **kw),
        "ContainerPool.scale_to":
            lambda **kw: ContainerPool.scale_to(None, 1, 0.0, **kw),
        "RollingPredictor": RollingPredictor,
        "PredictorBank": lambda **kw: PredictorBank(1, **kw),
        "Telemetry": Telemetry,
        "Tracer": Tracer,
        "XRONService": lambda **kw: XRONService(None, None, **kw),
        "generate_timeline":
            lambda **kw: generate_timeline(None, 1.0, **kw),
        "TimelineDraws": lambda **kw: TimelineDraws(1.0, **kw),
        "build_underlay": build_underlay,
        "gateway_crash": lambda **kw: gateway_crash(0.0, 1.0, "A", **kw),
        "probe_blackout": lambda **kw: probe_blackout(0.0, 1.0, **kw),
        "report_drop": lambda **kw: report_drop(0.0, 1.0, **kw),
        "report_staleness":
            lambda **kw: report_staleness(0.0, 1.0, 1.0, **kw),
        "membership_churn": lambda **kw: membership_churn(0.0, 1.0, **kw),
        "sparkline": lambda **kw: sparkline([1.0], **kw),
        "series_panel": lambda **kw: series_panel("x", [1.0], **kw),
        "ascii_cdf": lambda **kw: ascii_cdf([1.0], **kw),
        "histogram_bar": lambda **kw: histogram_bar([1], ["a"], **kw),
        "derive_seed": lambda **kw: derive_seed("x", **kw),
        "rollup_records": lambda **kw: rollup_records([], **kw),
        "standard_underlay": standard_underlay,
        "SimulationResult.loss_percentiles": lambda **kw:
            SimulationResult.loss_percentiles(None, **kw),
        "ExperimentSpec": lambda **kw: ExperimentSpec("x", "m", **kw),
        "QoEComparison.reduction_vs": lambda **kw:
            fig13_qoe.QoEComparison.reduction_vs(None, "m", **kw),
        "FastReactionAblation.reduction": lambda **kw:
            fig18_fast_reaction.FastReactionAblation.reduction(None, 0,
                                                                **kw),
        "NetworkTables.improvement": lambda **kw:
            tab23_network.NetworkTables.improvement(None, "99%", **kw),
        "fig13_qoe.run": fig13_qoe.run,
        # The deleted long mode keeps its owner names, bound to what
        # replaced each, so none of its settings comes back there: the
        # one `run` for the multi-day driver, `QoEComparison` for its
        # result, and the fig13 spec at full scale for `run_long`.
        "run_multi_day": fig13_qoe.run,
        "LongQoEComparison.reduction_vs": lambda **kw:
            fig13_qoe.QoEComparison.reduction_vs(None, "m", **kw),
        "fig13_qoe.run_long": lambda **kw:
            get("fig13").execute(full=True, **kw),
        "fig18_fast_reaction.run": fig18_fast_reaction.run,
        "tab23_network.run": tab23_network.run,
        "ablation_ordering.run": ablation_ordering.run,
        "ablation_probing.run": ablation_probing.run,
        "chaos_reaction.run": chaos_reaction.run,
        "reaction_latency.run": reaction_latency.run,
        "fig07_similarity.run": fig07_similarity.run,
        "fig08_asymmetry.run": fig08_asymmetry.run,
        "fig12_prediction.run": fig12_prediction.run,
        "fig17_cost.run": fig17_cost.run,
        "fig19_asymmetric.run": fig19_asymmetric.run,
        "fig20_scaling.run": fig20_scaling.run,
        "ablation_weights.run": ablation_weights.run,
        "fig01_02_linkstates.run": fig01_02_linkstates.run,
        "fig03_badtime.run": fig03_badtime.run,
        "fig04_pricing.run": fig04_pricing.run,
        "fig05_demand.run": fig05_demand.run,
        "fig09_degradations.run": fig09_degradations.run,
        "fig11_weekly.run": fig11_weekly.run,
        "fig14_15_badcases.run": fig14_15_badcases.run,
        "fig16_casestudies.run": fig16_casestudies.run,
        "partition.run": partition.run,
        "recovery.run": recovery.run,
    }


#: Settings that only their defaults and the tests set, now named
#: constants where they are read (the census, `tests/line_census.py`,
#: finds such a setting): (owner, keyword it no longer takes).
REMOVED_SETTINGS = [
    ("SimulationConfig", "robust_percentile"),
    ("SimulationConfig", "cohorts_per_pair"),
    ("SimulationConfig", "stream_cohorts"),
    ("Controller", "robust_percentile"),
    ("Controller", "predictor_harmonics"),
    ("NetworkInformationBase.robust_snapshot", "percentile"),
    ("ablation_stability.run", "percentile"),
    ("CohortWorkload", "min_pair_mbps"),
    ("CohortWorkload", "mix_jitter"),
    ("MonitoringConfig", "loss_timeout_rtts"),
    ("MonitoringConfig", "reorder_loss_threshold"),
    ("ResilienceConfig", "max_install_retries"),
    ("ResilienceConfig", "retry_backoff_s"),
    ("ResilienceConfig", "retry_backoff_factor"),
    ("ResilienceConfig", "staleness_epochs"),
    ("ResilienceConfig", "staleness_threshold_s"),
    ("ResilienceConfig", "failback_holddown_s"),
    ("membership", "ttl_s"),
    ("regional_control", "stream_id_base"),
    ("EventDrivenXRON", "passive_flush_s"),
    ("StreamInformationBase", "n_harmonics"),
    ("StreamInformationBase", "history_slots"),
    ("path_control", "max_rebuilds"),
    ("PassiveTracker", "min_packets"),
    ("SLOEngine", "cause_window_s"),
    ("SLOEngine", "max_remembered"),
    ("build_soak_schedule", "lead_s"),
    ("ReactionConfig", "enabled"),
    ("ControlConfig", "container_capacity_mbps"),
    ("ControlConfig", "max_containers"),
    ("ControlConfig", "latency_limit_floor_ms"),
    ("ControlConfig", "latency_limit_stretch"),
    ("ControlConfig", "loss_limit"),
    ("ControlConfig", "loss_ms_penalty"),
    ("ControlConfig", "capacity_headroom"),
    ("UnderlayConfig", "pricing"),
    ("UnderlayConfig", "similarity"),
    ("UnderlayConfig", "high_latency_ms"),
    ("UnderlayConfig", "high_loss_rate"),
    ("XRONSystem", "traffic_config"),
    ("run_multi_day", "traffic_config"),
    ("DemandModel", "config"),
    ("PricingModel", "config"),
    ("generate_regions", "config"),
    ("build_planet_underlay", "config"),
    ("LinkProcess.bad_fraction", "high_latency_ms"),
    ("LinkProcess.bad_fraction", "high_loss_rate"),
    ("LinkProcess.quality_series", "high_latency_ms"),
    ("LinkProcess.quality_series", "high_loss_rate"),
    ("GatewayLinkInstance.quality_series", "high_latency_ms"),
    ("GatewayLinkInstance.quality_series", "high_loss_rate"),
    ("quality_similarity", "high_latency_ms"),
    ("quality_similarity", "high_loss_rate"),
    ("make_gateway_links", "idio_duration_mean_s"),
    ("make_gateway_links", "severity_scale"),
    ("stall_series", "config"),
    ("frame_rate_series", "config"),
    ("e_model_r_factor", "config"),
    ("audio_fluency_series", "config"),
    ("qoe_badness", "video_config"),
    ("PathControlResult", "config"),
    ("generate_reaction_plans", "loss_ms_penalty"),
    ("build_pools", "control_config"),
    ("ReactiveAutoscaler", "high_utilisation"),
    ("ReactiveAutoscaler", "low_utilisation"),
    ("ReactiveAutoscaler", "scale_up_step"),
    ("ReactiveAutoscaler", "scale_down_step"),
    ("ReactiveAutoscaler", "metric_delay_slots"),
    ("ProactiveAutoscaler", "headroom"),
    ("ProactiveAutoscaler", "n_harmonics"),
    ("ProactiveAutoscaler", "history_slots"),
    ("ProactiveAutoscaler", "horizon_slots"),
    ("FixedAllocation", "headroom"),
    ("OptimalAllocation", "headroom"),
    ("OptimalAllocation", "window_slots"),
    ("ContainerPool", "delay_model"),
    ("ContainerPool.scale_to", "platform_load"),
    ("RollingPredictor", "n_harmonics"),
    ("RollingPredictor", "history_slots"),
    ("PredictorBank", "n_harmonics"),
    ("PredictorBank", "history_slots"),
    ("SLOEngine", "target"),
    ("SLOEngine", "hub"),
    ("Telemetry", "enabled"),
    ("Telemetry", "max_events"),
    ("Tracer", "max_events"),
    ("XRONSystem", "control_config"),
    ("EpochSimulator", "control_config"),
    ("EventDrivenXRON", "control_config"),
    ("run_multi_day", "control_config"),
    ("run_multi_day", "start_day"),
    ("run_multi_day", "regions"),
    ("XRONService", "start_s"),
    ("generate_timeline", "start_offset"),
    ("TimelineDraws", "start_offset"),
    ("build_underlay", "start_offset"),
    ("gateway_crash", "restart"),
    ("report_drop", "probability"),
    ("membership_churn", "probability"),
    ("sparkline", "width"),
    ("series_panel", "width"),
    ("ascii_cdf", "width"),
    ("ascii_cdf", "log_x"),
    ("histogram_bar", "width"),
    ("derive_seed", "base"),
    ("rollup_records", "registry_"),
    ("ExperimentSpec", "func"),
    ("ExperimentSpec", "seed"),
    ("ExperimentSpec", "full_func"),
    ("QoEComparison.reduction_vs", "variant"),
    ("QoEComparison.reduction_vs", "baseline"),
    ("LongQoEComparison.reduction_vs", "variant"),
    ("LongQoEComparison.reduction_vs", "baseline"),
    ("FastReactionAblation.reduction", "variant"),
    ("FastReactionAblation.reduction", "baseline"),
    ("NetworkTables.improvement", "variant"),
    ("NetworkTables.improvement", "baseline"),
    ("fig13_qoe.run", "variants"),
    ("fig13_qoe.run_long", "variants"),
    ("fig13_qoe.run_long", "epoch_s"),
    ("fig13_qoe.run_long", "eval_step_s"),
    ("fig18_fast_reaction.run", "variants"),
    ("tab23_network.run", "variants"),
    ("ablation_ordering.run", "internet_bandwidth_mbps"),
    ("ablation_ordering.run", "premium_bandwidth_mbps"),
    ("ablation_ordering.run", "long_haul_premium_ms"),
    ("ablation_probing.run", "step_s"),
    ("ablation_stability.run", "nib_window"),
    ("chaos_reaction.run", "event_duration_s"),
    ("chaos_reaction.run", "measure_interval_s"),
    ("reaction_latency.run", "event_duration_s"),
    ("reaction_latency.run", "measure_interval_s"),
    ("fig07_similarity.run", "step_s"),
    ("fig08_asymmetry.run", "step_s"),
    ("fig08_asymmetry.run", "relative_latency_gap"),
    ("fig12_prediction.run", "eval_days"),
    ("fig12_prediction.run", "n_harmonics"),
    ("fig17_cost.run", "scaling_days"),
    ("fig17_cost.run", "scaling_slot_s"),
    ("fig17_cost.run", "scaling_demand_scale"),
    ("fig19_asymmetric.run", "start_s"),
    ("fig20_scaling.run", "warmup_days"),
    ("RollingPredictor", "refit_every"),
    ("ProactiveAutoscaler", "refit_every"),
    ("SimulationResult.loss_percentiles", "percentiles"),
    ("gateway_crash", "count"),
    ("probe_blackout", "dst"),
    ("probe_blackout", "link_type"),
    ("report_drop", "dst"),
    ("report_drop", "link_type"),
    ("report_staleness", "dst"),
    ("report_staleness", "link_type"),
    ("standard_underlay", "seed"),
    ("ablation_ordering.run", "underlay"),
    ("ablation_ordering.run", "epoch_s"),
    ("ablation_ordering.run", "seed"),
    ("ablation_probing.run", "underlay"),
    ("ablation_probing.run", "gateways_per_region"),
    ("ablation_probing.run", "representative_counts"),
    ("ablation_probing.run", "seed"),
    ("ablation_stability.run", "start_hour"),
    ("ablation_stability.run", "seed"),
    ("ablation_stability.run", "epoch_s"),
    ("ablation_stability.run", "eval_step_s"),
    ("ablation_weights.run", "underlay"),
    ("ablation_weights.run", "exchange_rates"),
    ("ablation_weights.run", "epoch_s"),
    ("ablation_weights.run", "seed"),
    ("chaos_reaction.run", "seed"),
    ("chaos_reaction.run", "event_spacing_s"),
    ("fig01_02_linkstates.run", "underlay"),
    ("fig01_02_linkstates.run", "step_s"),
    ("fig01_02_linkstates.run", "day_s"),
    ("fig03_badtime.run", "underlay"),
    ("fig03_badtime.run", "step_s"),
    ("fig03_badtime.run", "day_s"),
    ("fig04_pricing.run", "underlay"),
    ("fig05_demand.run", "demand"),
    ("fig05_demand.run", "slot_s"),
    ("fig05_demand.run", "day_s"),
    ("fig07_similarity.run", "underlay"),
    ("fig07_similarity.run", "gateways_per_region"),
    ("fig07_similarity.run", "representatives"),
    ("fig07_similarity.run", "seed"),
    ("fig07_similarity.run", "max_pairs"),
    ("fig08_asymmetry.run", "underlay"),
    ("fig08_asymmetry.run", "window_s"),
    ("fig09_degradations.run", "underlay"),
    ("fig11_weekly.run", "demand"),
    ("fig11_weekly.run", "slot_s"),
    ("fig11_weekly.run", "days"),
    ("fig12_prediction.run", "demand"),
    ("fig12_prediction.run", "slot_s"),
    ("fig12_prediction.run", "train_days"),
    ("fig13_qoe.run", "seed"),
    ("fig13_qoe.run", "demand_scale"),
    ("fig14_15_badcases.run", "comparison"),
    ("fig16_casestudies.run", "seed"),
    ("fig16_casestudies.run", "eval_step_s"),
    ("fig16_casestudies.run", "epoch_s"),
    ("fig17_cost.run", "seed"),
    ("fig17_cost.run", "epoch_s"),
    ("fig17_cost.run", "eval_step_s"),
    ("fig18_fast_reaction.run", "seed"),
    ("fig18_fast_reaction.run", "start_hour"),
    ("fig18_fast_reaction.run", "eval_step_s"),
    ("fig18_fast_reaction.run", "epoch_s"),
    ("fig19_asymmetric.run", "underlay"),
    ("fig19_asymmetric.run", "epoch_s"),
    ("fig19_asymmetric.run", "seed"),
    ("fig20_scaling.run", "demand"),
    ("fig20_scaling.run", "days"),
    ("fig20_scaling.run", "slot_s"),
    ("fig20_scaling.run", "seed"),
    ("fig20_scaling.run", "demand_scale"),
    ("partition.run", "seed"),
    ("recovery.run", "seed"),
    ("reaction_latency.run", "seed"),
    ("reaction_latency.run", "event_spacing_s"),
    ("tab23_network.run", "seed"),
    ("tab23_network.run", "start_hour"),
    ("tab23_network.run", "eval_step_s"),
    ("tab23_network.run", "epoch_s"),
]

#: Config classes whose every setting became a named constant where it
#: is read, the names of fig13's per-day-underlay long mode, which the
#: one 14-day `fig13_qoe.run` replaced, the checkpoint half of
#: `CohortWorkload`, which no checkpointed controller decomposes with,
#: and the service's coroutine driver, which its synchronous `run`
#: replaced: (module, name), a name of a class's attribute as
#: ``Class.attr``.
REMOVED_CONFIGS = [
    ("repro.traffic", "TrafficConfig"),
    ("repro.underlay.config", "PricingConfig"),
    ("repro.underlay.config", "SimilarityConfig"),
    ("repro.underlay.planet", "PlanetConfig"),
    ("repro.qoe.video", "VideoQoEConfig"),
    ("repro.qoe.audio", "AudioQoEConfig"),
    ("repro.obs.slo", "SLOTarget"),
    ("repro.elastic.containers", "ProvisioningDelayModel"),
    ("repro.core", "longrun"),
    ("repro.core", "run_multi_day"),
    ("repro.core", "MultiDayResult"),
    ("repro.core", "DailySummary"),
    ("repro.experiments.fig13_qoe", "LongQoEComparison"),
    ("repro.experiments.fig13_qoe", "run_long"),
    ("repro.traffic.cohorts", "CohortWorkload.export_state"),
    ("repro.traffic.cohorts", "CohortWorkload.import_state"),
    ("repro.core.service", "XRONService.run_async"),
]


@pytest.mark.parametrize("owner, keyword", REMOVED_SETTINGS,
                         ids=[f"{o}.{k}" for o, k in REMOVED_SETTINGS])
def test_removed_setting_is_a_type_error(owner, keyword):
    with pytest.raises(TypeError):
        _removed_setting_owners()[owner](**{keyword: 1})


@pytest.mark.parametrize("module_name, name", REMOVED_CONFIGS,
                         ids=[name for __, name in REMOVED_CONFIGS])
def test_removed_config_is_gone(module_name, name):
    module = importlib.import_module(module_name)
    owner, __, attr = name.rpartition(".")
    assert not hasattr(getattr(module, owner) if owner else module, attr)
    if hasattr(module, "__path__"):  # nor a submodule of a package
        assert importlib.util.find_spec(f"{module_name}.{name}") is None
