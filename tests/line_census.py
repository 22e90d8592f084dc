"""A census of ``src/repro`` over the drivers CI runs: which executable
lines they reach, which settings they set, and why each line none of
them reaches and each setting none of them sets is there.

Run from the root of a checkout::

    PYTHONPATH=src python -m tests.line_census [--check]

It traces, in this process, the drivers CI already runs outside tier-1
(`DRIVERS`), then prints every unreached block of lines by file and
enclosing function, and every unset setting by file and owner.

A block is a run of unreached executable lines in one function.  Three
kinds of line are exempt by their syntax: a ``raise``, an ``if`` or
``except`` body made only of raises, and an ``if TYPE_CHECKING:``
block.  Every other unreached block is deleted, reached by a driver, or
covered by a row of `EXEMPT` that states why it stays.

A setting is a field of a public dataclass (every field its
``__init__`` takes) or a defaulted parameter of a public function, of a
public class's ``__init__`` or of one of its public methods.  It is set
when a traced call binds it to a value that differs from its default
(a required field is set by any value).  Every unset setting is folded
into a named constant where it is read, set by a driver, or covered by
a row of `EXEMPT_SETTINGS` that states why it stays.

``--check`` exits 1 when a driver fails, when an unreached block or an
unset setting has no row, or when a row covers nothing (a
``wall-clock`` row only needs its code to exist, since whether it runs
depends on the host).  Executable lines come from `dis.findlinestarts`,
whose tables differ between Python versions, so CI runs the check on
one pinned version.

The tracer is `sys.settrace` / `threading.settrace`.  Forked pool
workers inherit it but leave through ``os._exit``, so each hands its
lines and settings back through a `multiprocessing.util.Finalize`
registered after the fork.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import dis
import glob
import importlib
import inspect
import multiprocessing.util
import os
import pickle
import pkgutil
import runpy
import signal
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Why an unreached block or an unset setting may stay.  Every row of
#: `EXEMPT` and `EXEMPT_SETTINGS` names one.
REASONS = {
    "error": "handles an error a call can return, or bad outside input",
    "bound": "a cap branch, such as FOLD_SLOTS or REBUILD_BUDGET",
    "planted": "a violation that only an oracle plants",
    "wall-clock": "timing-dependent code",
    "e2e": "a name or keyword benchmarks/e2e wraps, calls or passes",
    "ci": "called from an inline CI script",
    "empty": "handles a valid empty input that no driver sends",
    "record": "a result or counter record: its fields are outputs",
    "format": "a format read from outside the program (a file, a "
              "checkpoint)",
    "calibration": "a row of a calibration table a refit of the model "
                   "will set",
    "entry": "an entry point's argument list, which the interpreter gives",
    "oracle": "a value only the solver's differential tests draw",
    "variant": "a switch a system variant carries into the event engine, "
               "which no driver runs with it flipped",
}

#: The line that starts the report's totals: CI prints from it on.
TOTALS = "== census totals =="

#: (file under src/repro, qualified name, stripped first line of the
#: block, reason): the unreached blocks that stay, each with its reason.
EXEMPT: List[Tuple[str, str, str, str]] = [
    # error
    ("cli.py", "_cmd_obs", "except BrokenPipeError:", "error"),
    ("cli.py", "_cmd_obs",
     "print(f\"error: {', '.join(args.paths)} holds no events and no \"",
     "error"),
    ("cli.py", "_cmd_obs", "return 1", "error"),
    ("cli.py", "_cmd_obs_profile",
     "print(f\"error: {', '.join(args.paths)} holds no algo_step span \"",
     "error"),
    ("cli.py", "_cmd_obs_profile", "return 1", "error"),
    ("cli.py", "_cmd_run", "except ValueError as exc:", "error"),
    ("cli.py", "_cmd_run",
     'print("error: pass a positive --hours", file=sys.stderr)', "error"),
    ("cli.py", "_cmd_serve",
     "except (OSError, ValueError, KeyError) as exc:", "error"),
    ("cli.py", "_cmd_serve", "except ServiceError as exc:", "error"),
    ("cli.py", "_cmd_serve",
     'print("error: --resume needs --checkpoint PATH", file=sys.stderr)',
     "error"),
    ("cli.py", "_cmd_serve",
     'print("error: pass a positive --hours/--minutes window",', "error"),
    ("cli.py", "_glob_paths",
     'print(f"error: no files match {pattern!r}", file=sys.stderr)', "error"),
    ("cli.py", "_read_telemetry",
     "except (OSError, TelemetryFormatError) as exc:", "error"),
    ("cli.py", "_read_telemetry", "return None", "error"),
    ("cli.py", "main",
     "parser.error(f\"unrecognized arguments: {' '.join(rest)}\")", "error"),
    ("controlplane/nib.py", "NetworkInformationBase._unknown",
     "outside = sorted(set(codes) - set(self._index))", "error"),
    ("controlplane/regional.py", "RegionalExtension.epoch_end",
     "continue", "error"),
    ("core/service.py", "XRONService._serve",
     "except Exception as exc:", "error"),
    ("core/service.py", "XRONService.run", "except ValueError:", "error"),
    ("core/service.py", "_open_fds", "except OSError:", "error"),
    ("core/service.py", "_rss_kb",
     "except (OSError, ValueError, IndexError):", "error"),
    ("experiments/orchestrator.py", "_pool_failure_record",
     "spec = registry.get(name)", "error"),
    ("experiments/orchestrator.py", "pool_context",
     "except ValueError:  # pragma: no cover - non-POSIX platforms", "error"),
    ("experiments/orchestrator.py", "run_parallel",
     "and attempts[name] < retries):", "error"),
    ("experiments/orchestrator.py", "run_parallel",
     "except BaseException as exc:", "error"),
    ("experiments/runner.py", "_print_record",
     'print(f"FAILED ({record.status})")', "error"),
    ("experiments/runner.py", "main",
     'print("no experiments match "', "error"),
    ("faults/spec.py", "FaultSchedule.from_json",
     'detail = ", ".join(f"{s.kind.value}@{s.start_s:g}s"', "error"),
    ("faults/spec.py", "FaultSchedule.from_json",
     "dropped.append(spec)", "error"),
    ("obs/export.py", "_fold_record", 'elif rtype == "header":', "error"),
    ("obs/export.py", "read_jsonl",
     "except json.JSONDecodeError as exc:", "error"),
    ("obs/stream.py", "TelemetryStream.close", "return", "error"),
    ("obs/stream.py", "TelemetryStream.flush_metrics",
     "return False", "error"),
    ("obs/stream.py", "TelemetryStream.write_event", "return", "error"),
    ("obs/trace.py", "Tracer.remove_sink", "except ValueError:", "error"),
    ("obs/trace.py", "_jsonable",
     'if hasattr(value, "item"):         # numpy scalars', "error"),
    ("traffic/matrix.py", "TrafficMatrix._set",
     "k = int(np.argmax(bad))", "error"),
    ("traffic/matrix.py", "_rows", "except KeyError:", "error"),
    ("traffic/streams.py", "StreamTable.__init__",
     "k = int(np.argmax(bad))", "error"),
    # bound
    # FOLD_SLOTS: only the probing-instant benchmark's n050 and n100
    # rounds fill it (75 batches between reads, the cap spans 53 and
    # 14), inside bench_scalability.py's timed calls.
    ("controlplane/nib.py", "NetworkInformationBase._append",
     "self._fold()", "bound"),
    ("controlplane/pathcontrol.py", "path_control", "warnings.warn(", "bound"),
    ("dataplane/probing.py", "BurstNoise._fill", "break", "bound"),
    ("obs/__init__.py", "Telemetry._count_drop",
     'self.metrics.counter("tracer.events_dropped").inc()', "bound"),
    ("obs/metrics.py", "Histogram.observe", "self.overflow += 1", "bound"),
    ("obs/summary.py", "_estimate_quantile",
     'return float(snap.get("max", 0.0))', "bound"),
    ("obs/trace.py", "Tracer.record_dict", "self.dropped += 1", "bound"),
    # planted
    ("controlplane/regional.py", "RegionalExtension._regional_epoch",
     "stats.regional_installs_rejected += 1", "planted"),
    ("dataplane/forwarding.py", "ForwardingTable.install",
     "return False", "planted"),
    ("resilience/invariants.py", "check_delivery",
     "violations.append(Violation(", "planted"),
    ("resilience/invariants.py", "check_loop_freedom",
     "violations.append(Violation(", "planted"),
    ("resilience/invariants.py", "check_no_blackhole",
     "violations.append(Violation(", "planted"),
    ("resilience/invariants.py", "check_plan_liveness",
     "violations.append(Violation(", "planted"),
    # wall-clock
    ("core/service.py", "XRONService._drive",
     'return "stopped"', "wall-clock"),
    # wall-clock: the soak smoke's SIGTERM handler runs traced only when
    # the signal lands outside the tracer's own calls (`sys.settrace`
    # traces no frame a trace function is interrupted into), and only a
    # traced driver that keeps up with the clock is in the paced wait
    # the signal ends.  A second request needs a second signal.
    ("core/service.py", "XRONService.run.on_signal",
     "self.request_stop(signal.Signals(signum).name)", "wall-clock"),
    ("core/service.py", "XRONService.request_stop",
     "if self._stop_reason is None:", "wall-clock"),
    ("core/service.py", "XRONService.request_stop",
     "except RuntimeError:", "wall-clock"),
    ("core/service.py", "XRONService._drive", "break", "wall-clock"),
    ("experiments/orchestrator.py", "execute_one",
     "except ExperimentTimeout:", "wall-clock"),
    # e2e
    ("controlplane/nib.py", "NetworkInformationBase._store_layers",
     "position = np.arange(len(batch))", "e2e"),
    # benchmarks/e2e wraps these two; the engine flushes its whole block
    # at once, and its walk takes `resolve`'s two steps itself.
    ("dataplane/cluster.py", "RegionCluster.flush_passive",
     "block = self.block", "e2e"),
    ("dataplane/cluster.py", "RegionCluster.resolve",
     "gateway = self.next_gateway()", "e2e"),
    ("faults/runtime.py", "FaultInjector.install_delay",
     "spec = self.install_delay_spec(region, now)", "e2e"),
    ("faults/runtime.py", "FaultInjector.region_blackout",
     "for spec in self._by_kind[FaultKind.PROBE_BLACKOUT]:", "e2e"),
    # ci
    ("obs/export.py", "TelemetryFile.events_of",
     'return [e for e in self.events if e.get("kind") == kind]', "ci"),
    ("obs/export.py", "TelemetryFile.kinds",
     "counts: Dict[str, int] = {}", "ci"),
    # empty
    ("analysis/ascii.py", "ascii_cdf", 'return ["(no data)"]', "empty"),
    ("analysis/ascii.py", "series_panel",
     'return [f"{label}: (no data)"]', "empty"),
    ("analysis/ascii.py", "sparkline", 'return ""', "empty"),
    ("controlplane/pathcontrol.py", "_fee_matrix",
     "return np.zeros((2, n, n))", "empty"),
    ("controlplane/prediction.py", "DTFTPredictor.export_state",
     "return None", "empty"),
    ("controlplane/prediction.py", "DTFTPredictor.import_state",
     "self._coeffs = None", "empty"),
    ("controlplane/prediction.py", "PredictorBank.observe", "return", "empty"),
    ("core/eventsim.py", "EventDrivenXRON.__init__",
     "else SimulationConfig())", "empty"),
    ("core/simulator.py", "EpochSimulator.__init__",
     "else SimulationConfig())", "empty"),
    ("core/simulator.py", "EpochSimulator._evaluate_epoch",
     "continue", "empty"),
    ("core/simulator.py", "SimulationResult._qoe_for_slice",
     "w = np.ones_like(w)", "empty"),
    ("core/simulator.py", "SimulationResult.backup_fraction",
     "return float(self.on_backup.mean())", "empty"),
    ("core/simulator.py", "SimulationResult.mean_route_churn",
     "return 0.0", "empty"),
    ("dataplane/estimator.py", "reaction_active_series",
     "return np.zeros(lat.shape, dtype=bool)", "empty"),
    ("dataplane/forwarding.py", "backup_path", "return None", "empty"),
    ("experiments/export.py", "write_csv", "return []", "empty"),
    ("experiments/fig13_qoe.py", "QoEComparison.reduction_vs",
     "return 0.0", "empty"),
    ("experiments/fig19_asymmetric.py", "run", "continue", "empty"),
    ("experiments/orchestrator.py", "run_parallel", "return []", "empty"),
    ("experiments/recovery.py", "_is_fallback", "continue", "empty"),
    ("faults/runtime.py", "FaultInjector.filter_report",
     "codes, tier = batch.codes, batch.tier", "empty"),
    ("faults/runtime.py", "FaultInjector.fault_id", "return None", "empty"),
    ("obs/export.py", "read_jsonl", "continue", "empty"),
    ("obs/slo.py", "SLOEngine.render_report",
     'lines.append("  (no streams observed)")', "empty"),
    ("obs/summary.py", "_estimate_quantile", "return None", "empty"),
    ("obs/summary.py", "_merge_metric_records",
     'prev["min"] = snap.get("min", 0.0)', "empty"),
    ("qoe/video.py", "stall_durations", "return np.zeros(0)", "empty"),
    ("sim/engine.py", "Simulator.step", "return False", "empty"),
    ("underlay/events.py", "_compile_many", "continue", "empty"),
    ("underlay/similarity.py", "quality_similarity", "return 1.0", "empty"),
    ("underlay/snapshot.py", "LinkTable.series",
     "return (np.zeros((len(keys), times.size)),", "empty"),
    # format: fault-schedule shapes that reach a run only inside a
    # checkpoint envelope `serve --resume` loads (the soak schedule the
    # serve CLI builds has none of them).  ROADMAP 6(b)'s schedule
    # replay is the driver that will reach them.
    # A report drop with probability < 1 ...
    ("faults/runtime.py", "FaultInjector._fires",
     'seed = self._streams.seed_for(f"{self._ids[spec]}.{key}")', "format"),
    # ... and `hash_uniform`'s integer seed, which only `_fires` passes.
    ("sim/rng.py", "hash_uniform",
     "x ^= _U64(seed & 0xFFFFFFFFFFFFFFFF)", "format"),
    # An open-ended or a link-scoped spec.
    ("faults/spec.py", "FaultSpec.from_json",
     'data["duration_s"] = math.inf', "format"),
    ("faults/spec.py", "FaultSpec.from_json",
     'data["link_type"] = LinkType(data["link_type"])', "format"),
    ("faults/spec.py", "FaultSpec.to_json",
     'doc["duration_s"] = None', "format"),
    ("faults/spec.py", "FaultSpec.to_json",
     'doc["link_type"] = self.link_type.value', "format"),
    # A retry that outlives its epoch: an install delay longer than the
    # epoch, which only test_eventsim_faults.py plants.
    ("resilience/install.py", "ResilienceExtension._attempt",
     "return  # superseded by a newer epoch's update", "format"),
]

#: (file under src/repro, owner, setting or "*" for every setting of the
#: owner, reason): the settings no driver sets that stay, each with its
#: reason.  An owner is a function, a class (its ``__init__`` or its
#: fields) or ``Class.method``.
EXEMPT_SETTINGS: List[Tuple[str, str, str, str]] = [
    # record
    ("controlplane/membership.py", "MembershipCounters", "*", "record"),
    ("controlplane/regional.py", "PartitionCounters", "*", "record"),
    ("core/eventsim.py", "SessionRecord", "*", "record"),
    ("experiments/orchestrator.py", "RunRecord", "*", "record"),
    ("faults/runtime.py", "FaultCounters", "*", "record"),
    ("obs/profile.py", "EpochProfile", "*", "record"),
    ("obs/profile.py", "PhaseStat", "*", "record"),
    ("obs/slo.py", "StreamLedger", "*", "record"),
    ("resilience/install.py", "ResilienceCounters", "*", "record"),
    # format
    ("faults/spec.py", "FaultSpec", "*", "format"),
    ("obs/export.py", "TelemetryFile", "*", "format"),
    # calibration
    ("core/config.py", "SimulationConfig", "monitoring", "calibration"),
    ("core/config.py", "SimulationConfig", "reaction", "calibration"),
    ("dataplane/config.py", "MonitoringConfig", "*", "calibration"),
    ("dataplane/config.py", "ReactionConfig", "*", "calibration"),
    ("underlay/config.py", "InternetLinkConfig", "*", "calibration"),
    ("underlay/config.py", "PremiumLinkConfig", "*", "calibration"),
    ("underlay/config.py", "UnderlayConfig", "internet", "calibration"),
    ("underlay/config.py", "UnderlayConfig", "premium", "calibration"),
    # entry
    ("cli.py", "main", "argv", "entry"),
    # oracle: test_restricted_build, test_sweep_differential and
    # test_route_table_properties draw it.
    ("controlplane/model.py", "ControlConfig", "max_hops", "oracle"),
    # e2e: control_n100 passes its default, 2.
    ("traffic/cohorts.py", "CohortWorkload", "cohorts_per_pair", "e2e"),
    # e2e: benchmarks/e2e passes close=True, the default.
    ("obs/__init__.py", "Telemetry.detach_stream", "close", "e2e"),
    # variant: `VariantSpec.fast_reaction`, which the grid engine's
    # `repro run --variant` drivers do flip.
    ("dataplane/cluster.py", "RegionCluster", "fast_reaction", "variant"),
    ("dataplane/gateway.py", "Gateway", "fast_reaction", "variant"),
]


# --------------------------------------------------------------------------
# Tracing


#: (file, owner, setting): a setting, its file absolute while traced.
Key = Tuple[str, str, str]


def _differs(value, unset: tuple) -> bool:
    """Whether `value` equals none of the values that leave a setting
    unset (a value that cannot be compared, such as an array, differs)."""
    for default in unset:
        if value is default:
            return False
        try:
            if not value != default:
                return False
        except Exception:
            pass
    return True


def _unset_values(func) -> Dict[str, tuple]:
    """Setting -> the values that leave it unset: each defaulted
    parameter's default."""
    return {p.name: (p.default,)
            for p in inspect.signature(func).parameters.values()
            if p.default is not p.empty}


def _field_unset_values(cls, init) -> Dict[str, tuple]:
    """Field -> the values that leave it unset: its default; for a
    factory field, the generated ``__init__``'s marker and a fresh
    value; nothing for a required field, which any value sets."""
    marker = inspect.signature(init).parameters
    unset = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        if f.default is not dataclasses.MISSING:
            unset[f.name] = (f.default,)
        elif f.default_factory is not dataclasses.MISSING:
            unset[f.name] = (marker[f.name].default, f.default_factory())
        else:
            unset[f.name] = ()
    return unset


def signatures(namespace: dict) -> Iterator[Tuple[str, Callable,
                                                  Dict[str, tuple]]]:
    """(owner, function, setting -> its unset values) of every public
    signature a module's namespace defines: its public functions, and
    its public classes' fields (through ``__init__``), own ``__init__``
    and own public methods."""
    module = namespace.get("__name__")
    for name, obj in list(namespace.items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module:
            continue
        if inspect.isfunction(obj):
            yield name, obj, _unset_values(obj)
        elif inspect.isclass(obj):
            fields = dataclasses.is_dataclass(obj)
            for method, attr in list(vars(obj).items()):
                func = getattr(attr, "__func__", attr)  # static, class
                if not inspect.isfunction(func) or (
                        method.startswith("_") and method != "__init__"):
                    continue
                if method != "__init__":
                    yield f"{name}.{method}", func, _unset_values(func)
                elif fields:
                    yield name, func, _field_unset_values(obj, func)
                else:
                    yield name, func, _unset_values(func)


class Tracer:
    """Records, under `prefix`, in this process, in threads started while
    it runs and in forked children: the (file, line) pairs executed, and
    the settings a call binds to a value other than their default."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: Dict[str, Set[int]] = {}
        self.set: Set[Key] = set()
        self._locals: Dict[str, Optional[Callable]] = {"<string>": _skip}
        #: id(code) -> (code, setting -> (unset values, key) for the
        #: settings not yet set), or (code, None) for no signature.  The
        #: code is held so that its id is never reused.
        self._codes: Dict[int, tuple] = {}
        self._spool: Optional[str] = None

    def _local_for(self, filename: str) -> Optional[Callable]:
        local = None
        if filename.startswith(self.prefix):
            lines = self.hits.setdefault(filename, set())
            add = lines.add

            def local(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return local

        self._locals[filename] = local
        return local

    def _global(self, frame, event, arg):
        code = frame.f_code
        try:
            local = self._locals[code.co_filename]
        except KeyError:
            local = self._local_for(code.co_filename)
        if local is not None:
            try:
                pending = self._codes[id(code)][1]
            except KeyError:
                pending = self._resolve(frame)
            if pending:
                values = frame.f_locals
                for name, (unset, key) in list(pending.items()):
                    if _differs(values.get(name), unset):
                        pending.pop(name, None)
                        self.set.add(key)
        return local

    def _resolve(self, frame) -> Optional[dict]:
        """Index the signatures of the module that defines the frame's
        code, then return its pending settings, if it is one."""
        code = frame.f_code
        name = code.co_name
        namespace = None
        if name == "__init__" or not name.startswith(("_", "<")):
            if code.co_filename.startswith(self.prefix):
                namespace = frame.f_globals
            elif name == "__init__":  # a dataclass's generated __init__
                for cls in type(frame.f_locals.get("self")).__mro__:
                    if getattr(vars(cls).get("__init__"), "__code__",
                               None) is code:
                        namespace = getattr(sys.modules.get(cls.__module__),
                                            "__dict__", None)
                        break
        filename = namespace and namespace.get("__file__")
        if filename and filename.startswith(self.prefix):
            for owner, func, unset in signatures(namespace):
                c = inspect.unwrap(func).__code__
                self._codes.setdefault(id(c), (c, {
                    s: (values, (filename, owner, s))
                    for s, values in unset.items()}))
        return self._codes.setdefault(id(code), (code, None))[1]

    def start(self, spool: str) -> None:
        """Trace from here on; forked children write what they record to
        files under `spool`."""
        self._spool = spool
        multiprocessing.util.register_after_fork(self, Tracer._forked)
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    def _forked(self) -> None:
        for lines in self.hits.values():
            lines.clear()
        self.set.clear()
        multiprocessing.util.Finalize(None, self._hand_back, exitpriority=100)

    def _hand_back(self) -> None:
        path = os.path.join(self._spool, f"traced.{os.getpid()}.pickle")
        with open(path, "wb") as fh:
            pickle.dump(({f: sorted(s) for f, s in self.hits.items()},
                         self.set), fh)

    def merged(self) -> Tuple[Dict[str, Set[int]], Set[Key]]:
        """This process's lines and settings plus every child's."""
        hits = {f: set(s) for f, s in self.hits.items()}
        settings = set(self.set)
        for path in glob.glob(os.path.join(self._spool, "traced.*.pickle")):
            with open(path, "rb") as fh:
                lines, child = pickle.load(fh)
            for filename, found in lines.items():
                hits.setdefault(filename, set()).update(found)
            settings |= child
        return hits, settings


def _skip(frame, event, arg):
    """The local trace of generated code: watched for its call, not
    line-traced."""
    return None


# --------------------------------------------------------------------------
# Static analysis


def executable_lines(source: str, filename: str) -> Set[int]:
    """Every line that starts a bytecode line-table entry, in the module
    and every code object nested in it."""
    lines: Set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code)
                     if line is not None and line > 0)
        stack.extend(const for const in code.co_consts
                     if hasattr(const, "co_code"))
    return lines


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _raises_only(body: Sequence[ast.stmt]) -> bool:
    return all(isinstance(stmt, ast.Raise) for stmt in body)


def _is_type_checking(test: ast.expr) -> bool:
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"))


def scopes_and_guards(tree: ast.AST) -> Tuple[Dict[int, str], Set[int]]:
    """(line -> qualified name of its innermost function or class, the
    lines exempt by syntax: raises, raise-only ``if`` / ``except``
    bodies, ``if TYPE_CHECKING:`` blocks)."""
    scope: Dict[int, str] = {}
    guards: Set[int] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                # The decorators and the def line run in the outer scope.
                for line in range(child.body[0].lineno, child.end_lineno + 1):
                    scope[line] = name
            if isinstance(child, ast.Raise):
                guards.update(_span(child))
            elif isinstance(child, ast.ExceptHandler) and _raises_only(
                    child.body):
                guards.update(_span(child))
            elif isinstance(child, ast.If):
                if _is_type_checking(child.test):
                    guards.update(_span(child))
                elif _raises_only(child.body):
                    for stmt in child.body:
                        guards.update(_span(stmt))
            visit(child, name)

    visit(tree, "")
    return scope, guards


@dataclass(frozen=True)
class Block:
    """A run of unreached, non-exempt executable lines in one scope."""

    file: str            # relative to src/repro
    qualname: str        # "<module>" at module level
    first: int
    last: int
    text: str            # the first line, stripped
    size: int            # executable lines in the block

    def key(self) -> Tuple[str, str, str]:
        return (self.file, self.qualname, self.text)


@dataclass
class FileCensus:
    file: str
    executable: int
    reached: int
    guarded: int          # unreached lines exempt by syntax
    blocks: List[Block]
    #: (qualified name, stripped text) of every executable line.
    lines: Set[Tuple[str, str]]


def census_file(path: Path, rel: str, hits: Set[int]) -> FileCensus:
    source = path.read_text()
    text = source.splitlines()
    executable = executable_lines(source, str(path))
    scope, guards = scopes_and_guards(ast.parse(source, str(path)))
    blocks: List[Block] = []
    run: List[int] = []

    def close() -> None:
        if run:
            blocks.append(Block(rel, scope.get(run[0], "<module>"), run[0],
                                run[-1], text[run[0] - 1].strip(), len(run)))
            run.clear()

    guarded = 0
    for line in sorted(executable):
        if line in hits:
            close()
        elif line in guards:
            guarded += 1  # exempt, but it does not split a block
        else:
            if run and scope.get(run[0]) != scope.get(line):
                close()
            run.append(line)
    close()
    lines = {(scope.get(line, "<module>"), text[line - 1].strip())
             for line in executable}
    return FileCensus(rel, len(executable), len(executable & hits), guarded,
                      blocks, lines)


def census(root: Path, hits: Dict[str, Set[int]]) -> List[FileCensus]:
    """The census of every module under `root` against `hits`."""
    return [census_file(path, path.relative_to(root).as_posix(),
                        hits.get(str(path), set()))
            for path in sorted(root.rglob("*.py"))]


def judge(files: Sequence[FileCensus],
          exempt: Iterable[Tuple[str, str, str, str]]
          ) -> Tuple[Dict[Block, str], List[Block], List[Tuple]]:
    """(block -> reason of the row that covers it, blocks no row covers,
    rows that cover nothing)."""
    rows = {(f, q, t): reason for f, q, t, reason in exempt}
    covered: Dict[Block, str] = {}
    uncovered: List[Block] = []
    used: Set[Tuple[str, str, str]] = set()
    for fc in files:
        for block in fc.blocks:
            reason = rows.get(block.key())
            if reason is None:
                uncovered.append(block)
            else:
                covered[block] = reason
                used.add(block.key())
    present = {(fc.file, q, t) for fc in files for q, t in fc.lines}
    stale = [(f, q, t, r) for (f, q, t), r in rows.items()
             if (f, q, t) not in used
             and (r != "wall-clock" or (f, q, t) not in present)]
    return covered, uncovered, stale


def settings(root: Path, modules: Iterable[ModuleType]) -> List[Key]:
    """(file relative to `root`, owner, setting) of every setting of
    every public signature the modules define."""
    return sorted((Path(module.__file__).relative_to(root).as_posix(),
                   owner, name)
                  for module in modules
                  for owner, __, unset in signatures(vars(module))
                  for name in unset)


def judge_settings(all_settings: Sequence[Key], found: Set[Key],
                   exempt: Iterable[Tuple[str, str, str, str]]
                   ) -> Tuple[Dict[Key, str], List[Key], List[Tuple]]:
    """(unset setting -> reason of the row that covers it, unset
    settings no row covers, rows that cover nothing)."""
    rows = {(f, o, s): reason for f, o, s, reason in exempt}
    covered: Dict[Key, str] = {}
    uncovered: List[Key] = []
    used: Set[Key] = set()
    for setting in all_settings:
        if setting in found:
            continue
        file, owner, __ = setting
        row = next((r for r in (setting, (file, owner, "*")) if r in rows),
                   None)
        if row is None:
            uncovered.append(setting)
        else:
            covered[setting] = rows[row]
            used.add(row)
    stale = [(f, o, s, r) for (f, o, s), r in rows.items()
             if (f, o, s) not in used]
    return covered, uncovered, stale


def report(files: Sequence[FileCensus], lines: Tuple, all_settings:
           Sequence[Key], settings_judged: Tuple) -> None:
    """Every unreached block and unset setting with its fate, every
    stale row, then the totals under the `TOTALS` line: `lines` and
    `settings_judged` are what `judge` and `judge_settings` return."""
    covered, uncovered, stale = lines
    excused, unset, stale_settings = settings_judged
    w = sys.stdout.write
    for fc in files:
        for block in fc.blocks:
            fate = covered.get(block, "NO ROW")
            span = (f"{block.first}" if block.first == block.last
                    else f"{block.first}-{block.last}")
            w(f"{fc.file}:{span} {block.qualname}: {block.text}  [{fate}]\n")
    for setting in all_settings:
        if setting in excused or setting in unset:
            w(f"{setting[0]} {setting[1]}({setting[2]}=)  "
              f"[{excused.get(setting, 'NO ROW')}]\n")
    for row in [*stale, *stale_settings]:
        w(f"STALE ROW {row[0]} {row[1]}: {row[2]!r} [{row[3]}]\n")
    executable = sum(fc.executable for fc in files)
    reached = sum(fc.reached for fc in files)
    guarded = sum(fc.guarded for fc in files)
    by_reason = Counter()
    for block, reason in covered.items():
        by_reason[reason] += block.size
    w(f"\n{TOTALS}\n{reached} of {executable} executable lines reached "
      f"({100.0 * reached / max(executable, 1):.1f} %); "
      f"{executable - reached} unreached: {guarded} exempt by syntax, "
      f"{sum(by_reason.values())} by row, "
      f"{sum(b.size for b in uncovered)} in {len(uncovered)} block(s) "
      f"with no row\n")
    w(f"{len(all_settings)} settings: "
      f"{len(all_settings) - len(excused) - len(unset)} set by a driver, "
      f"{len(excused)} by row, {len(unset)} with no row; "
      f"{len(stale) + len(stale_settings)} stale row(s)\n")
    settings_by_reason = Counter(excused.values())
    w(f"  {'reason':<11} lines settings\n")
    for reason in REASONS:
        w(f"  {reason:<11} {by_reason.get(reason, 0):>5} "
          f"{settings_by_reason.get(reason, 0):>8}\n")


# --------------------------------------------------------------------------
# Drivers: what CI runs outside tier-1, in this process


def _as_main(module: str, *argv: str) -> int:
    """`python -m module argv...`, in this process."""
    saved, sys.argv = sys.argv, [module, *argv]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else int(code is not None)
    finally:
        sys.argv = saved
    return 0


def _runner(*argv: str) -> int:
    return _as_main("repro.experiments.runner", *argv)


def _cli(*argv: str) -> int:
    return _as_main("repro", *argv)


def _quick_suite(work: Path) -> int:
    return _runner("--parallel", "2", "--timeout", "600",
                   "--manifest", str(work / "quick.json"))


def _telemetry_smoke(work: Path) -> int:
    tel = str(work / "telemetry.jsonl")
    parts = str(work / "soak" / "stream.*.jsonl")
    return (_runner("--only", "fig20", "reaction-latency", "--timeout", "600",
                    "--manifest", str(work / "telemetry.json"),
                    "--telemetry", tel)
            or _cli("obs", "summary", tel)
            or _cli("demo", "--minutes", "6", "--chaos", "--stream",
                    str(work / "soak" / "stream.jsonl"), "--stream-max-kb",
                    "48", "--slo")
            or _cli("obs", "summary", parts)
            or _cli("obs", "profile", parts))


def _chaos_smoke(work: Path) -> int:
    tel = str(work / "chaos.jsonl")
    return (_runner("--only", "chaos-reaction", "recovery", "partition",
                    "--timeout", "600", "--manifest",
                    str(work / "chaos.json"), "--telemetry", tel)
            or _cli("obs", "summary", tel))


def _soak_smoke(work: Path) -> int:
    """`serve` drained by SIGTERM mid-window, then resumed."""
    checkpoint = str(work / "checkpoint.json")
    timer = threading.Timer(8.0, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        drained = _cli("serve", "--minutes", "30", "--compress", "60",
                       "--chaos", "--chaos-period", "300", "--heartbeat-s",
                       "120", "--quiet", "--checkpoint", checkpoint,
                       "--health-out", str(work / "health1.json"))
    finally:
        timer.cancel()
        timer.join()
    return (drained
            or _cli("serve", "--minutes", "30", "--resume", "--checkpoint",
                    checkpoint, "--quiet", "--heartbeat-s", "120", "--stream",
                    str(work / "serve.jsonl"), "--slo", "--health-out",
                    str(work / "health2.json"))
            or _cli("obs", "summary", str(work / "serve*.jsonl")))


def _commands(work: Path) -> int:
    from repro.cli import VARIANTS
    status = (_cli("info")
              or _cli("run", "--hours", "0.5", "--telemetry",
                      str(work / "run.jsonl"))
              or _cli("obs", "summary", str(work / "run.jsonl"))
              or _cli("obs", "profile", str(work / "run.jsonl"))
              or _cli("demo", "--minutes", "1", "--seed", "3", "--telemetry",
                      str(work / "demo.jsonl"))
              # The obs and runner flags no other driver passes.
              or _cli("obs", "summary", "--allow-partial", "--max-metrics",
                      "5", str(work / "*.jsonl"))
              or _cli("obs", "profile", "--allow-partial", "--max-pairs", "3",
                      str(work / "run.jsonl"))
              # fig04 has no full keywords: --full costs what a quick
              # leg costs and sets the scale flag down both runners.
              or _runner("--only", "fig04", "--full", "--parallel", "2",
                         "--retries", "2", "--telemetry",
                         str(work / "parallel.jsonl"), "--manifest",
                         str(work / "full.json"))
              or _cli("experiments", "--only", "fig04", "--full")
              or _runner("--list", "--tags", "ablation"))
    for variant in sorted(VARIANTS):
        status = status or _cli("run", "--variant", variant, "--hours", "0.5")
    # A calm window with heartbeats on stderr, then a short one at a
    # 60 s period that cycles every fault kind.
    return (status
            or _cli("serve", "--minutes", "10", "--heartbeat-s", "120")
            or _cli("serve", "--chaos", "--chaos-period", "60", "--minutes",
                    "20", "--quiet", "--slo"))


def _examples(work: Path) -> int:
    for path in sorted((ROOT / "examples").glob("*.py")):
        argv, sys.argv = sys.argv, [str(path)]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv
    return 0


def _e2e_workers(work: Path) -> int:
    from benchmarks.e2e import worker
    from benchmarks.e2e.cli import WORKLOADS, WORLD_SEED
    status = 0
    for workload in WORKLOADS:
        workdir = work / f"e2e-{workload}"
        workdir.mkdir()
        status = status or worker.main([
            "--workload", workload, "--seed", "7",
            "--world-seed", str(WORLD_SEED), "--seconds", "2",
            "--t0", repr(time.time()), "--workdir", str(workdir)])
    return status


class _ResultsTo:
    """Points the figure benchmarks' output files at a scratch folder."""

    def __init__(self, folder: Path):
        self.folder = folder

    def pytest_sessionstart(self, session):
        sys.modules["benchmarks.conftest"].RESULTS_DIR = self.folder


#: The figure benchmarks that time one call through `run_once`.  With
#: timing disabled, `benchmark.pedantic` calls each body once, traced
#: and untimed; `bench_scalability.py` runs timed, since its budgets
#: read `benchmark.stats`, and pytest-benchmark pauses the trace inside
#: its timed calls.
TRACED_BENCHMARKS = ("bench_ablations", "bench_application_qoe", "bench_cost",
                     "bench_daily_qoe", "bench_extra_ablations",
                     "bench_motivation", "bench_network_tables",
                     "bench_orchestrator")


def _figure_benchmarks(work: Path) -> int:
    import pytest

    def session(*args: str) -> int:
        # The sweeps have their own CI job; "not sweep" would also drop
        # test_ablation_weight_sweep.  test_telemetry_overhead times a
        # ratio the tracer distorts; the untraced CI jobs judge it.
        return int(pytest.main(
            [*args, "-q", "-p", "no:cacheprovider",
             "-k", "not test_sweep_ and not test_telemetry_overhead"],
            plugins=[_ResultsTo(work / "results")]))

    with contextlib.ExitStack() as stack:
        stack.callback(os.chdir, os.getcwd())
        os.chdir(ROOT)
        return (session(*(f"benchmarks/{name}.py"
                          for name in TRACED_BENCHMARKS),
                        "--benchmark-disable")
                or session("benchmarks/bench_scalability.py"))


#: name -> driver(work folder) -> exit status, in the order they run.
DRIVERS: Dict[str, Callable[[Path], int]] = {
    "quick-suite": _quick_suite,
    "telemetry-smoke": _telemetry_smoke,
    "chaos-smoke": _chaos_smoke,
    "soak-smoke": _soak_smoke,
    "commands": _commands,
    "examples": _examples,
    "e2e-workers": _e2e_workers,
    "figure-benchmarks": _figure_benchmarks,
}


def run_drivers(work: Path, log
                ) -> Tuple[Dict[str, Set[int]], Set[Key], List[str]]:
    """Trace every driver; return (lines reached, settings set, drivers
    that failed)."""
    tracer = Tracer(str(SRC) + os.sep)
    spool = work / "spool"
    spool.mkdir()
    failed = []
    tracer.start(str(spool))
    try:
        for name, driver in DRIVERS.items():
            folder = work / name
            folder.mkdir()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                try:
                    status = driver(folder)
                except Exception as exc:
                    print(f"{name}: {exc!r}", file=sys.stderr)
                    status = 1
            if status:
                failed.append(name)
            print(f"driver {name}: {'FAILED' if status else 'ok'} in "
                  f"{time.perf_counter() - t0:.0f} s", file=sys.stderr,
                  flush=True)
    finally:
        tracer.stop()
    return (*tracer.merged(), failed)


def _package_modules() -> List[ModuleType]:
    """Every module of `repro`, imported: only after the trace, so that
    the drivers reach every module-level line and import-time call."""
    import repro
    return [importlib.import_module(name)
            for __, name, __ in pkgutil.walk_packages(repro.__path__,
                                                      prefix="repro.")
            if not name.endswith("__main__")]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.line_census",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a failed driver, an unreached block "
                             "or unset setting with no row, or a row that "
                             "covers nothing")
    args = parser.parse_args(argv)
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        log_path = os.path.join(tmp, "drivers.log")
        with open(log_path, "w") as log:
            hits, found, failed = run_drivers(Path(tmp), log)
        if failed:
            with open(log_path) as log:
                sys.stderr.writelines(log.readlines()[-60:])
    traced_s = time.perf_counter() - t0
    files = census(SRC, hits)
    lines = judge(files, EXEMPT)
    all_settings = settings(SRC, _package_modules())
    found = {(Path(f).relative_to(SRC).as_posix(), o, s) for f, o, s in found}
    settings_judged = judge_settings(all_settings, found, EXEMPT_SETTINGS)
    report(files, lines, all_settings, settings_judged)
    print(f"traced wall time {traced_s:.0f} s"
          + (f"; failed drivers: {', '.join(failed)}" if failed else ""))
    bad = (failed or lines[1] or lines[2] or settings_judged[1]
           or settings_judged[2])
    return 1 if args.check and bad else 0


if __name__ == "__main__":
    sys.exit(main())
