"""Process-pool experiment orchestration.

Fans the experiment registry out across :class:`ProcessPoolExecutor`
workers.  Each experiment runs through the same core
(:func:`execute_one`) in both the sequential and parallel paths:

* global RNGs are seeded with the spec's deterministic per-experiment
  seed before the experiment body runs, so output lines are
  byte-identical regardless of execution order or worker placement;
* a per-experiment wall-clock deadline (``SIGALRM``-based, armed inside
  the worker process) converts runaway experiments into ``timeout``
  records instead of hanging the suite;
* failures are captured as full tracebacks in a structured
  :class:`RunRecord`, never as swallowed exceptions.

The parallel path adds a bounded retry policy: records whose failure is
classified transient (:class:`TransientExperimentError`, ``OSError``,
``MemoryError``, a worker process dying, or a timeout) are resubmitted
up to ``retries`` times.  Deterministic failures are not retried.

Records feed ``repro.experiments.export.write_manifest`` — the JSON
artifact CI uploads and diffs across runs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.experiments import registry
from repro.obs.metrics import MetricsRegistry

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


class ExperimentTimeout(Exception):
    """An experiment exceeded its per-experiment wall-clock budget."""


class TransientExperimentError(Exception):
    """Raise from an experiment to mark its failure as retryable."""


#: Exception types whose failures the parallel path may retry.
TRANSIENT_TYPES = (TransientExperimentError, OSError, MemoryError)


@dataclass
class RunRecord:
    """Structured outcome of one experiment attempt (manifest row)."""

    name: str
    status: str
    wall_s: float
    seed: int
    lines: List[str] = field(default_factory=list)
    traceback: Optional[str] = None
    retries: int = 0
    tags: List[str] = field(default_factory=list)
    transient: bool = False
    #: Metric snapshot captured around the experiment (telemetry runs).
    metrics: Optional[Dict[str, object]] = None
    #: Trace events (JSON-ready dicts).  Deliberately kept OUT of the
    #: manifest (`to_json`) — they go to the telemetry JSONL instead.
    events: Optional[List[Dict[str, object]]] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "wall_s": round(self.wall_s, 3),
            "retries": self.retries,
            "seed": self.seed,
            "tags": list(self.tags),
            "lines": list(self.lines),
            "traceback": self.traceback,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


@contextmanager
def _deadline(timeout_s: Optional[float]):
    """Raise :class:`ExperimentTimeout` after ``timeout_s`` wall seconds.

    Uses ``SIGALRM``/``setitimer``, so it only arms on the main thread
    of a process on platforms that have it — exactly the situation of a
    pool worker (and of the sequential CLI).  Elsewhere it is a no-op
    and the experiment simply runs to completion.

    It also refuses to arm while an asyncio event loop is running in
    this thread: asyncio owns signal delivery there (wakeup fd, signal
    handlers installed via ``loop.add_signal_handler``), and swapping
    the ``SIGALRM`` disposition underneath it clobbers whatever the
    loop installed.
    """
    usable = (timeout_s is not None and timeout_s > 0
              and hasattr(signal, "SIGALRM")
              and threading.current_thread() is threading.main_thread())
    if usable:
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass  # no loop in this thread: SIGALRM is ours to use
        else:
            usable = False
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise ExperimentTimeout(f"exceeded {timeout_s:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_one(name: str, full: bool = False,
                timeout_s: Optional[float] = None,
                telemetry: bool = False) -> RunRecord:
    """Run one registered experiment under seed + deadline control.

    This is the single execution core: the sequential runner calls it
    in-process, the parallel path submits it to pool workers.  It never
    raises for experiment failures — the outcome (including a full
    traceback) is encoded in the returned record.

    With ``telemetry=True`` the experiment runs inside a fresh capture
    window of the global telemetry hub; the record then carries the
    experiment's metric snapshot and trace events.  Instrumentation
    consumes no randomness, so output lines stay byte-identical either
    way.
    """
    spec = registry.get(name)
    seed = spec.resolved_seed()
    random.seed(seed)
    np.random.seed(seed)
    t0 = time.perf_counter()
    events: Optional[List[Dict[str, object]]] = None
    metrics: Optional[Dict[str, object]] = None
    try:
        if telemetry:
            with obs.capture() as hub:
                with _deadline(timeout_s):
                    lines = spec.execute(full)
                events = hub.events_json()
                metrics = hub.metrics.snapshot()
        else:
            with _deadline(timeout_s):
                lines = spec.execute(full)
        return RunRecord(name=name, status=STATUS_OK,
                         wall_s=time.perf_counter() - t0, seed=seed,
                         lines=lines, tags=list(spec.tags),
                         metrics=metrics, events=events)
    except ExperimentTimeout:
        return RunRecord(name=name, status=STATUS_TIMEOUT,
                         wall_s=time.perf_counter() - t0, seed=seed,
                         traceback=traceback.format_exc(),
                         tags=list(spec.tags), transient=True)
    except Exception as exc:
        return RunRecord(name=name, status=STATUS_FAILED,
                         wall_s=time.perf_counter() - t0, seed=seed,
                         traceback=traceback.format_exc(),
                         tags=list(spec.tags),
                         transient=isinstance(exc, TRANSIENT_TYPES))


def run_sequential(names: Sequence[str], *, full: bool = False,
                   timeout_s: Optional[float] = None,
                   telemetry: bool = False,
                   on_record: Optional[Callable[[RunRecord], None]] = None,
                   ) -> List[RunRecord]:
    """Run experiments one by one in this process, in the given order."""
    records = []
    for name in names:
        record = execute_one(name, full, timeout_s, telemetry)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def pool_context():
    """Prefer ``fork`` workers: they inherit the parent's registry (so
    dynamically registered specs resolve by name in children) and the
    choice stays stable across Python versions that move the platform
    default.  Falls back to the platform default where fork is absent.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _pool_failure_record(name: str, exc: BaseException) -> RunRecord:
    """Record for an attempt whose *worker* died (pool-level failure)."""
    spec = registry.get(name)
    tb = "".join(traceback.format_exception_only(type(exc), exc))
    return RunRecord(name=name, status=STATUS_FAILED, wall_s=0.0,
                     seed=spec.resolved_seed(), traceback=tb,
                     tags=list(spec.tags), transient=True)


def run_parallel(names: Sequence[str], *, full: bool = False,
                 workers: int = 4, timeout_s: Optional[float] = None,
                 retries: int = 1, telemetry: bool = False,
                 on_record: Optional[Callable[[RunRecord], None]] = None,
                 ) -> List[RunRecord]:
    """Fan experiments out across a process pool; return records in
    the input order.

    ``retries`` bounds how many times a transiently-failed or timed-out
    experiment is resubmitted; a record's ``retries`` field reports how
    many resubmissions it consumed.  ``on_record`` fires (in completion
    order) once per experiment with its *final* record.

    A worker process dying (e.g. OOM-killed) breaks a
    ``ProcessPoolExecutor``, so each resubmission round runs in a fresh
    pool and pool-level failures are classified transient.
    """
    names = list(names)
    if not names:
        return []
    final: Dict[str, RunRecord] = {}
    attempts: Dict[str, int] = {name: 0 for name in names}
    pending = names

    while pending:
        next_round: List[str] = []
        with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                                 mp_context=pool_context()) as pool:
            futures = {pool.submit(execute_one, name, full, timeout_s,
                                   telemetry): name
                       for name in pending}
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    name = futures[future]
                    pool_broken = False
                    try:
                        record = future.result()
                    except BaseException as exc:
                        record = _pool_failure_record(name, exc)
                        pool_broken = True
                    record.retries = attempts[name]
                    if (not record.ok and record.transient
                            and attempts[name] < retries):
                        attempts[name] += 1
                        if not pool_broken:
                            try:
                                retry = pool.submit(execute_one, name,
                                                    full, timeout_s,
                                                    telemetry)
                                futures[retry] = name
                                not_done.add(retry)
                                continue
                            except BaseException:
                                pass  # pool broke under us, fall through
                        # The pool cannot accept work any more; finish
                        # this round, retry in a fresh pool.
                        next_round.append(name)
                        continue
                    final[name] = record
                    if on_record is not None:
                        on_record(record)
        pending = next_round

    return [final[name] for name in names]


def rollup_records(records: Sequence[RunRecord],
                   registry_: Optional[MetricsRegistry] = None
                   ) -> Dict[str, object]:
    """Aggregate a suite's records through a metrics registry.

    Produces the manifest's suite-level rollup: experiment counts by
    status, total retries, and a wall-clock histogram — all expressed as
    ordinary `repro.obs` metrics so the manifest and the telemetry file
    speak the same schema.
    """
    reg = registry_ if registry_ is not None else MetricsRegistry()
    wall = reg.histogram(
        "orchestrator.experiment_wall_s",
        buckets=(0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0))
    for record in records:
        reg.counter("orchestrator.experiments").inc()
        reg.counter(f"orchestrator.status.{record.status}").inc()
        reg.counter("orchestrator.retries").inc(record.retries)
        wall.observe(record.wall_s)
    return reg.snapshot()
