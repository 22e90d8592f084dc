"""A settings census of ``src/repro``: every setting of every public
signature, with the caller outside the tests that sets it or the row
that exempts it.

Run from the root of a checkout::

    PYTHONPATH=src python -m tests.settings_census [--check]

A setting is a field of a public dataclass (every field its
``__init__`` takes) or a defaulted parameter of a public function, of
a public class's ``__init__`` or of one of its public methods, in any
module of ``src/repro``.  Its owner is the class or function (a
method's is ``Class.method``), named by its module under `repro`.  A
caller, somewhere in ``src/``, ``examples/`` or ``benchmarks/`` outside
the owner's own definition, passes it

* as a keyword of a call of the owner, or of a function whose
  ``**kwargs`` reach the owner (`XRONSystem.event_engine` forwards to
  `EventDrivenXRON`), or — a field — of ``replace``;
* as a whole-string dict key — a parameter, not a field: the
  ``**kwargs`` tables such as the experiment registry's;
* or in its position, in a call of the owner's name with that many
  positional arguments before any ``*args``.

Calls match by name, so two owners of one name share their callers (a
method ``run`` is called wherever any ``run`` is).  A setting no caller
passes is a named constant where it is read, or is covered by a row of
`EXEMPT` that states why it stays.  The command prints every setting
with its first caller (file and line) or its row's reason, then the
totals; ``--check`` exits 1 when a setting has neither, or when a row
covers nothing.  `tests/test_imports.py::test_every_setting_has_a_caller`
runs the same judgement in tier-1.
"""

from __future__ import annotations

import argparse
import ast
import collections
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
CALLER_TREES = ("src", "examples", "benchmarks")

#: Why a setting no caller passes may stay.  Every `EXEMPT` row names one.
REASONS = {
    "record": "a result or counter record: its fields are outputs",
    "format": "a format read from outside the program (a file, a "
              "checkpoint)",
    "calibration": "a row of a calibration table a refit of the model "
                   "will set",
    "entry": "an entry point's argument list, which the interpreter gives",
    "oracle": "a value only the solver's differential tests draw",
    "planned": "the planet-scale switch, to be selected by region count",
}

#: (owner, setting or "*" for every setting of the owner, reason): the
#: settings no caller passes that stay, each with its reason.  An owner
#: is a class or function by its module under `repro` (a method's is
#: ``module.Class.method``).
EXEMPT: List[Tuple[str, str, str]] = [
    # record
    ("controlplane.membership.MembershipCounters", "*", "record"),
    ("controlplane.regional.PartitionCounters", "*", "record"),
    ("core.eventsim.EventSimResult", "*", "record"),
    ("core.eventsim.SessionRecord", "*", "record"),
    ("experiments.orchestrator.RunRecord", "*", "record"),
    ("faults.runtime.FaultCounters", "*", "record"),
    ("obs.profile.EpochProfile", "*", "record"),
    ("obs.profile.PhaseStat", "*", "record"),
    ("obs.slo.StreamLedger", "*", "record"),
    ("resilience.install.ResilienceCounters", "*", "record"),
    # format
    ("faults.spec.FaultSchedule", "*", "format"),
    ("faults.spec.FaultSpec", "*", "format"),
    ("obs.export.TelemetryFile", "*", "format"),
    ("resilience.checkpoint.Checkpoint", "*", "format"),
    # calibration: the §4 detector tables and the per-tier link table
    # (`build_underlay` reads its rows through one variable and
    # `quiet_testbed` writes through them: attribute stores, not
    # keywords).
    ("core.config.SimulationConfig", "monitoring", "calibration"),
    ("core.config.SimulationConfig", "reaction", "calibration"),
    ("dataplane.config.MonitoringConfig", "*", "calibration"),
    ("dataplane.config.ReactionConfig", "*", "calibration"),
    ("underlay.config.InternetLinkConfig", "*", "calibration"),
    ("underlay.config.PremiumLinkConfig", "*", "calibration"),
    ("underlay.config.UnderlayConfig", "internet", "calibration"),
    ("underlay.config.UnderlayConfig", "premium", "calibration"),
    # entry
    ("cli.main", "argv", "entry"),
    # oracle: test_restricted_build, test_sweep_differential and
    # test_route_table_properties draw it.
    ("controlplane.model.ControlConfig", "max_hops", "oracle"),
    # planned
    ("core.config.SimulationConfig", "stream_cohorts", "planned"),
]


class Setting(NamedTuple):
    label: str      # "owner.setting", as reported
    owner: str      # "module.Class", "module.function", "module.Class.method"
    name: str       # the keyword
    callee: str     # the name a direct call of the owner uses
    is_field: bool  # a dataclass field: only the class or replace sets it
    position: int   # its index among the positional parameters
    path: Path
    span: Tuple[int, int]


def _package_modules() -> List[str]:
    import repro
    return sorted(name for __, name, __ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.") if not name.endswith("__main__"))


def _span(obj) -> Tuple[Path, Tuple[int, int]]:
    path = Path(inspect.getsourcefile(obj)).resolve()
    lines, first = inspect.getsourcelines(obj)
    return path, (first, first + len(lines) - 1)


def _defaulted(func, skip_first: bool) -> Iterator[Tuple[int, str]]:
    """(position, name) of every defaulted parameter; keyword-only ones
    get a position no positional call reaches."""
    params = list(inspect.signature(func).parameters.values())
    if skip_first:
        params = params[1:]
    for position, p in enumerate(params):
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is not p.empty:
            if p.kind is p.KEYWORD_ONLY:
                position = sys.maxsize
            yield position, p.name


def _methods(cls) -> Iterator[Tuple[str, object, bool]]:
    """(name, function, whether its first parameter is bound) of the
    public methods a class defines itself, and of its own
    ``__init__``."""
    for name, attr in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(attr, staticmethod):
            yield name, attr.__func__, False
        elif isinstance(attr, classmethod):
            yield name, attr.__func__, True
        elif inspect.isfunction(attr):
            yield name, attr, True


def settings() -> Iterator[Setting]:
    """Every setting of every public signature in `src/repro`."""
    for module_name in _package_modules():
        module = importlib.import_module(module_name)
        short = module_name[len("repro."):]
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj):
                path, span = _span(obj)
                owner = f"{short}.{name}"
                for position, param in _defaulted(obj, False):
                    yield Setting(f"{owner}.{param}", owner, param, name,
                                  False, position, path, span)
            elif inspect.isclass(obj):
                yield from _class_settings(short, obj)


def _class_settings(short: str, cls) -> Iterator[Setting]:
    name = cls.__name__
    owner = f"{short}.{name}"
    path, span = _span(cls)
    is_dataclass = dataclasses.is_dataclass(cls)
    if is_dataclass:
        init = [f for f in dataclasses.fields(cls) if f.init]
        for position, f in enumerate(init):
            if getattr(f, "kw_only", False) is True:  # Python 3.10+
                position = sys.maxsize
            yield Setting(f"{owner}.{f.name}", owner, f.name, name, True,
                          position, path, span)
    for method, func, bound in _methods(cls):
        if method == "__init__":
            if is_dataclass:
                continue
            where, callee = owner, name
        else:
            where, callee = f"{owner}.{method}", method
        mpath, mspan = _span(func)
        for position, param in _defaulted(func, bound):
            yield Setting(f"{where}.{param}", where, param, callee, False,
                          position, mpath, mspan)


class Use(NamedTuple):
    path: Path
    line: int
    callee: Optional[str]   # None for a dict key
    n_args: int             # positional arguments before any ``*args``


class Uses(NamedTuple):
    """What the caller trees pass, indexed for `caller_of`."""

    #: keyword -> every call passing it and every dict naming it.
    by_keyword: Dict[str, List[Use]]
    #: callee name -> every call of that name.
    by_callee: Dict[str, List[Use]]
    #: callee name -> the functions whose ``**kwargs`` reach it, directly
    #: or through other such functions.
    forwarders: Dict[str, Set[str]]


def uses() -> Uses:
    """Every call, keyword, dict key and ``**kwargs`` forward in the
    caller trees."""
    by_keyword: Dict[str, List[Use]] = collections.defaultdict(list)
    by_callee: Dict[str, List[Use]] = collections.defaultdict(list)
    forwards: Dict[str, Set[str]] = collections.defaultdict(set)
    for top in CALLER_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    callee = getattr(func, "id", getattr(func, "attr", None))
                    n_args = 0
                    for arg in node.args:
                        if isinstance(arg, ast.Starred):
                            break
                        n_args += 1
                    use = Use(path.resolve(), node.lineno, callee, n_args)
                    by_callee[callee].append(use)
                    for kw in node.keywords:
                        if kw.arg:
                            by_keyword[kw.arg].append(use)
                elif isinstance(node, ast.Dict):
                    for key in node.keys:
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            by_keyword[key.value].append(
                                Use(path.resolve(), key.lineno, None, 0))
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.args.kwarg is not None):
                    kwargs = node.args.kwarg.arg
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call) and any(
                                kw.arg is None
                                and isinstance(kw.value, ast.Name)
                                and kw.value.id == kwargs
                                for kw in call.keywords):
                            func = call.func
                            forwards[getattr(func, "id", getattr(
                                func, "attr", None))].add(node.name)
    forwarders: Dict[str, Set[str]] = {}
    for callee in forwards:
        reached, stack = set(), [callee]
        while stack:
            for wrapper in forwards.get(stack.pop(), ()):
                if wrapper not in reached:
                    reached.add(wrapper)
                    stack.append(wrapper)
        forwarders[callee] = reached
    return Uses(by_keyword, by_callee, forwarders)


def caller_of(setting: Setting, found: Uses) -> Optional[Use]:
    """The first use outside the owner's definition that sets it: a
    keyword of a call of the owner, of a function whose ``**kwargs``
    reach the owner, or (a field) of ``replace``; a dict key (a
    function's ``**kwargs`` table); or a call of the owner with the
    setting's position filled."""

    def outside(use: Use) -> bool:
        return (use.path != setting.path
                or not setting.span[0] <= use.line <= setting.span[1])

    callees = {setting.callee} | found.forwarders.get(setting.callee, set())
    if setting.is_field:
        callees.add("replace")
    else:
        callees.add(None)
    for use in found.by_keyword.get(setting.name, ()):
        if use.callee in callees and outside(use):
            return use
    for use in found.by_callee.get(setting.callee, ()):
        if use.n_args > setting.position and outside(use):
            return use
    return None


def _row_of(setting: Setting, rows) -> Optional[Tuple[str, str, str]]:
    for row in rows:
        owner, name, __ = row
        if owner == setting.owner and name in (setting.name, "*"):
            return row
    return None


def judge(all_settings: Sequence[Setting], found: Uses,
          exempt: Sequence[Tuple[str, str, str]] = None):
    """(setting -> its caller, setting -> the row that exempts it,
    settings with neither, rows that cover nothing)."""
    exempt = EXEMPT if exempt is None else exempt
    called, excused, uncalled = {}, {}, []
    for setting in all_settings:
        use = caller_of(setting, found)
        if use is not None:
            called[setting] = use
            continue
        row = _row_of(setting, exempt)
        if row is None:
            uncalled.append(setting)
        else:
            excused[setting] = row
    used = set(excused.values())
    stale = [row for row in exempt if row not in used]
    return called, excused, uncalled, stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.settings_census",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a setting with no caller and no "
                             "row, or a row that covers nothing")
    args = parser.parse_args(argv)
    all_settings = list(settings())
    called, excused, uncalled, stale = judge(all_settings, uses())
    w = sys.stdout.write
    for s in all_settings:
        if s in called:
            use = called[s]
            fate = f"{use.path.relative_to(ROOT)}:{use.line}"
        elif s in excused:
            fate = f"exempt: {excused[s][2]}"
        else:
            fate = "NO CALLER"
        w(f"{s.label}  [{fate}]\n")
    for row in stale:
        w(f"STALE ROW {row[0]}.{row[1]} [{row[2]}]\n")
    w(f"{len(all_settings)} settings: {len(called)} with a caller, "
      f"{len(excused)} exempt, {len(uncalled)} with no caller; "
      f"{len(stale)} rows cover nothing\n")
    return int(args.check and bool(uncalled or stale))


if __name__ == "__main__":
    sys.exit(main())
