"""Every module in the package imports cleanly (no dead imports, no
syntax drift) and the public packages re-export what they promise."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALL_MODULES = sorted(
    name for __, name, __ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
    if not name.endswith("__main__"))


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


#: Public functions and methods of `src/repro` that nothing in `src/`,
#: `examples/` or `benchmarks/` names: only tests call them.  The list
#: may only shrink — delete such code, move it under ``tests/`` or give
#: it a caller, then take its line out.
KNOWN_ORPHANS = frozenset({
    "repro.controlplane.capacity.CapacityDecision.uncapacitated",
    "repro.controlplane.pathcontrol.PathControlResult.assignment_for",
    "repro.controlplane.pathcontrol.PathControlResult.average_relay_hops",
    "repro.dataplane.estimator.LinkStateEstimator.apply_group_state",
    "repro.dataplane.estimator.LinkStateEstimator.estimate",
    "repro.dataplane.estimator.LinkStateEstimator.ingest_burst",
    "repro.dataplane.passive.PassiveTracker.tracked_links",
    "repro.dataplane.probing.ProbeBurst.bytes_sent",
    "repro.elastic.containers.ContainerPool.total_count",
    "repro.experiments.ablation_ordering.OrderingAblation.long_haul_floor",
    "repro.experiments.base.cdf_summary",
    "repro.experiments.registry.unregister",
    "repro.faults.spec.FaultSchedule.extended",
    "repro.faults.spec.FaultSpec.severs",
    "repro.obs.export.TelemetryFile.events_of",
    "repro.obs.slo.SLOEngine.observe_series",
    "repro.traffic.cohorts.CohortWorkload.expand",
    "repro.traffic.cohorts.CohortWorkload.session_statistics",
    "repro.traffic.matrix.TrafficMatrix.as_array",
    "repro.traffic.matrix.TrafficMatrix.ingress",
    "repro.traffic.streams.StreamWorkload.session_statistics",
    "repro.underlay.events.DegradationEvent.is_short",
    "repro.underlay.events.DegradationEvent.ramp_s",
    "repro.underlay.events.EventTimeline.active_events",
    "repro.underlay.events.EventTimeline.duration_histogram",
    "repro.underlay.events.EventTimeline.latency_add_scalar",
    "repro.underlay.events.EventTimeline.loss_add_scalar",
    "repro.underlay.linkstate.LinkStateSample.is_bad",
})


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
    `benchmarks/` outside its own definition.  Names match bare, so a
    common name always has a "caller"; the check catches the rest."""
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
    orphans = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text())
        for qualified, node in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in mentions[node.name]):
                orphans.add(f"{module}.{qualified}")
    assert not orphans - KNOWN_ORPHANS, \
        f"only tests call: {sorted(orphans - KNOWN_ORPHANS)}"
    assert not KNOWN_ORPHANS - orphans, \
        f"no longer orphans, drop from KNOWN_ORPHANS: " \
        f"{sorted(KNOWN_ORPHANS - orphans)}"
