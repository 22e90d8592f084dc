"""Every module in the package imports cleanly (no dead imports, no
syntax drift) and the public packages re-export what they promise."""

import ast
import collections
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


def test_every_module_has_an_importer():
    """Nothing in `src/repro` is dead weight: every module is imported
    by another module — its own package's ``__init__`` merely
    re-exporting it does not count — or is an entry point
    (``__main__``, the CLI, a module the experiment registry names).  A
    reference implementation only the tests call belongs under
    ``tests/``."""
    from repro.experiments.registry import all_specs

    entry_points = {"repro.cli"} | {spec.module for spec in all_specs()}
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


def _public_definitions(tree):
    """(qualified name, node) of a module's public functions and of the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_has_a_caller():
    """A public function or method of `src/repro` is named — by a Name,
    an Attribute or a whole string constant (`eventsim.HOOKS` lists its
    hook methods as strings) — somewhere in `src/`, `examples/` or
    `benchmarks/` outside its own definition, or as a whole word in a
    CI workflow (whose inline Python reads telemetry files).

    Names match bare, so this check cannot see past a collision: a
    method called `get` or `run` always has a "caller" in some other
    class.  The deeper check is a call census — profile every call
    event under `src/repro` while the CLI commands, the examples, the
    experiment suite and the end-to-end workloads run, and list what
    was never entered (docs/extending.md, "Adding an engine
    subsystem")."""
    #: name -> [(file, line)] of every mention.
    mentions = collections.defaultdict(list)
    for top in ("src", "examples", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    name = node.value
                else:
                    continue
                mentions[name].append((path, node.lineno))
    workflows = " ".join(path.read_text() for path in
                         (ROOT / ".github" / "workflows").glob("*.yml"))
    in_workflows = set(re.findall(r"\w+", workflows))
    orphans = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text())
        for qualified, node in _public_definitions(tree):
            if node.name.startswith("_") or node.name in in_workflows:
                continue
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in mentions[node.name]):
                orphans.add(f"{module}.{qualified}")
    assert not orphans, f"only tests call: {sorted(orphans)}"


#: Settings a caller outside the tests has yet to set, each with the
#: reason it stays a field.  The list may only shrink.
UNSET_SETTINGS = {
    "SimulationConfig.stream_cohorts":
        "the planet-scale switch, to be selected by region count",
    "SimulationConfig.monitoring":
        "the monitoring calibration table (probing cadence, R, EWMA)",
    "SimulationConfig.reaction":
        "the fast-reaction calibration table (thresholds, hysteresis)",
    "ControlConfig.max_hops":
        "the DP differentials draw it (test_restricted_build, "
        "test_sweep_differential, test_route_table_properties)",
}

#: Settings the census exempts, each with its reason: two rows of one
#: per-tier table that `build_underlay` reads through one variable and
#: `quiet_testbed` writes through (attribute stores, not keywords).
TABLE_HANDLES = {
    "UnderlayConfig.internet": "the Internet row of the per-tier table",
    "UnderlayConfig.premium": "the premium row of the per-tier table",
}


def _settings():
    """(label, setting, owner name, position, file, line range) of every
    field of the configs (owner: the class; only a call of it or
    ``replace`` sets one) and every defaulted keyword of the engine,
    controller, cohort workload and solver entry points (owner: None,
    since callers forward keywords through wrappers such as
    `XRONSystem.event_engine`; the name is the direct caller's).

    The census covers every config class but these, each for a stated
    reason:

    * `MonitoringConfig` and `ReactionConfig`, the §4 detector tables
      `SimulationConfig.monitoring` / `.reaction` carry (in
      `UNSET_SETTINGS`), which a refit of the detectors will set;
    * `InternetLinkConfig` and `PremiumLinkConfig`, and the
      `UnderlayConfig.internet` / `.premium` handles to them
      (`TABLE_HANDLES`): two rows of one per-tier calibration table.
    """
    import dataclasses
    import inspect

    from repro.controlplane.controller import Controller
    from repro.controlplane.model import ControlConfig
    from repro.controlplane.pathcontrol import path_control
    from repro.core.config import SimulationConfig
    from repro.core.eventsim import EventDrivenXRON
    from repro.core.service import ServiceConfig
    from repro.resilience.config import ResilienceConfig
    from repro.traffic.cohorts import CohortWorkload
    from repro.underlay.config import UnderlayConfig

    owners = [(cls, cls.__name__, True,
               [f.name for f in dataclasses.fields(cls)])
              for cls in (SimulationConfig, ResilienceConfig, ServiceConfig,
                          ControlConfig, UnderlayConfig)]
    for func in (EventDrivenXRON.__init__, Controller.__init__,
                 CohortWorkload.__init__, path_control):
        params = [p for p in inspect.signature(func).parameters.values()
                  if p.name != "self"]
        owners.append((func, func.__qualname__.split(".")[0], False,
                       [p.name if p.default is not p.empty else None
                        for p in params]))
    for owner, callee, is_config, names in owners:
        path = pathlib.Path(inspect.getsourcefile(owner)).resolve()
        lines, first = inspect.getsourcelines(owner)
        for position, name in enumerate(names):
            if name is not None:
                yield (f"{callee}.{name}", name, callee, is_config,
                       position, path, (first, first + len(lines) - 1))


def test_every_setting_has_a_caller():
    """A setting is a field only while a caller outside the tests needs
    a value of it: each one is passed — as a keyword (a constructor or
    ``replace(...)`` argument) or in its position — or is a whole-string
    dict key somewhere in `src/`, `examples/` or `benchmarks/`
    outside its own definition.  A setting only its default and the
    tests reach is a named constant where it is read
    (docs/extending.md, "Adding an engine subsystem")."""
    #: (path, line, callee name or None, keyword or None, positionals)
    uses = collections.defaultdict(list)
    for top in ("src", "examples", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", getattr(func, "attr", None))
                    starred = any(isinstance(a, ast.Starred)
                                  for a in node.args)
                    where = (path.resolve(), node.lineno, callee,
                             float("inf") if starred else len(node.args))
                    uses[None].append(where)
                    for kw in node.keywords:
                        if kw.arg:
                            uses[kw.arg].append(where)
                elif isinstance(node, ast.Dict):
                    for key in node.keys:
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            uses[key.value].append(
                                (path.resolve(), key.lineno, None, 0))

    def outside(path, line, span, own):
        return path != own or not span[0] <= line <= span[1]

    uncalled = set()
    for label, name, owner, is_config, position, own, span in _settings():
        keyed = any(
            outside(path, line, span, own)
            and (callee is None or not is_config
                 or callee in (owner, "replace"))
            for path, line, callee, __ in uses[name])
        placed = any(
            outside(path, line, span, own) and callee == owner
            and n_args > position
            for path, line, callee, n_args in uses[None])
        if not (keyed or placed):
            uncalled.add(label)
    uncalled -= set(TABLE_HANDLES)
    assert not uncalled - set(UNSET_SETTINGS), \
        f"settings only tests set: {sorted(uncalled - set(UNSET_SETTINGS))}"
    assert not set(UNSET_SETTINGS) - uncalled, \
        f"now set by a caller, drop from UNSET_SETTINGS: " \
        f"{sorted(set(UNSET_SETTINGS) - uncalled)}"


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
    from repro.core.eventsim import EventDrivenXRON
    from repro.core.longrun import run_multi_day
    from repro.core.service import build_soak_schedule
    from repro.core.system import XRONSystem
    from repro.dataplane.config import MonitoringConfig, ReactionConfig
    from repro.dataplane.passive import PassiveTracker
    from repro.experiments import ablation_stability
    from repro.obs.slo import SLOEngine
    from repro.qoe.audio import audio_fluency_series, e_model_r_factor
    from repro.qoe.metrics import qoe_badness
    from repro.qoe.video import frame_rate_series, stall_series
    from repro.resilience.config import ResilienceConfig
    from repro.traffic.cohorts import CohortWorkload
    from repro.traffic.demand import DemandModel
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.linkstate import LinkProcess
    from repro.underlay.planet import build_planet_underlay, generate_regions
    from repro.underlay.pricing import PricingModel
    from repro.underlay.similarity import (GatewayLinkInstance,
                                           make_gateway_links,
                                           quality_similarity)

    codes = ["A", "B"]
    series = ([100.0], [0.0])
    return {
        "SimulationConfig": SimulationConfig,
        "MonitoringConfig": MonitoringConfig,
        "ReactionConfig": ReactionConfig,
        "ControlConfig": ControlConfig,
        "UnderlayConfig": UnderlayConfig,
        "XRONSystem": XRONSystem,
        "run_multi_day": lambda **kw: run_multi_day(1, **kw),
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
        "PassiveTracker": PassiveTracker,
        "SLOEngine": SLOEngine,
        "build_soak_schedule":
            lambda **kw: build_soak_schedule(0.0, 600.0, codes, **kw),
    }


#: Settings that only their defaults and the tests reached, now named
#: constants where they are read: (owner, keyword it no longer takes).
REMOVED_SETTINGS = [
    ("SimulationConfig", "robust_percentile"),
    ("SimulationConfig", "cohorts_per_pair"),
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
]

#: Config classes whose every setting became a named constant where it
#: is read: (module, class).
REMOVED_CONFIGS = [
    ("repro.traffic", "TrafficConfig"),
    ("repro.underlay.config", "PricingConfig"),
    ("repro.underlay.config", "SimilarityConfig"),
    ("repro.underlay.planet", "PlanetConfig"),
    ("repro.qoe.video", "VideoQoEConfig"),
    ("repro.qoe.audio", "AudioQoEConfig"),
]


@pytest.mark.parametrize("owner, keyword", REMOVED_SETTINGS,
                         ids=[f"{o}.{k}" for o, k in REMOVED_SETTINGS])
def test_removed_setting_is_a_type_error(owner, keyword):
    with pytest.raises(TypeError):
        _removed_setting_owners()[owner](**{keyword: 1})


@pytest.mark.parametrize("module_name, name", REMOVED_CONFIGS,
                         ids=[name for __, name in REMOVED_CONFIGS])
def test_removed_config_is_gone(module_name, name):
    assert not hasattr(importlib.import_module(module_name), name)
