"""Streaming JSONL telemetry: incremental flushes with rotation.

`TelemetryStream` is the live counterpart of `repro.obs.export`: where
`write_jsonl` dumps a finished capture in one shot, a stream writes
each trace event the moment it is recorded and periodic *delta* metric
snapshots at epoch boundaries, so a multi-hour soak run leaves a
readable telemetry trail even if the process dies mid-epoch.

Properties:

* **Line-atomic.**  Every record is serialized to one complete JSON
  line and written with a single ``write`` + ``flush``, so a crash can
  truncate at most the final line (the readers' ``allow_partial_tail``
  tolerates exactly that).
* **Size-rotated.**  Output goes to numbered part files
  (``name.00000.jsonl``, ``name.00001.jsonl``, ...) that rotate when a
  part would exceed ``max_bytes``.  Part numbers are zero-padded so a
  lexicographic glob yields emission order, and every part begins with
  its own schema header — each part is independently a valid telemetry
  file, and `repro.obs.export.read_many` merges the set.
* **Delta metrics.**  `flush_metrics` writes only what changed since
  the previous flush (counter increments, bucket-count deltas), tagged
  ``"delta": true``; the summary aggregator's merge semantics (counters
  sum, gauges last-write-wins, histogram counts add) reconstruct the
  totals exactly.  A registry reset (generation bump) resets the
  baseline, so deltas never go negative across `obs.capture` windows.

The stream is attached through `Telemetry.attach_stream`, which
registers it as a tracer sink; events past the tracer's in-memory
bound still reach the stream, so the bounded buffer no longer caps
what a long run can record.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import TELEMETRY_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceEvent

#: Default rotation threshold: 4 MB per part.
DEFAULT_MAX_BYTES = 4_000_000

#: The C encoder `json.dumps(doc, sort_keys=True)` runs, made once
#: rather than per record (a record is a tree: no cycle check).
_iterencode = c_make_encoder(None, json.JSONEncoder().default,
                             encode_basestring_ascii, None, ": ", ", ",
                             True, False, True)


def _encode(doc: Dict[str, Any]) -> str:
    """One line's JSON: the bytes of `json.dumps(doc, sort_keys=True)`."""
    return "".join(_iterencode(doc, 0))


class TelemetryStream:
    """Rotating, crash-safe JSONL writer for live telemetry."""

    def __init__(self, path: Union[str, Path], *,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 meta: Optional[Dict[str, Any]] = None):
        """``path`` names the stream; parts are written next to it as
        ``<stem>.<part:05d><suffix>`` (``out/run.jsonl`` produces
        ``out/run.00000.jsonl``, ``out/run.00001.jsonl``, ...)."""
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        path = Path(path)
        self._directory = path.parent
        self._stem = path.stem
        self._suffix = path.suffix or ".jsonl"
        self.max_bytes = int(max_bytes)
        self._meta = dict(meta or {})
        #: Part files written so far, in emission order.
        self.paths: List[Path] = []
        self._fh = None
        self._bytes = 0
        #: Non-header records written to the *current* part.
        self._part_records = 0
        self.events_written = 0
        self.metrics_flushes = 0
        self.rotations = 0
        self.closed = False
        #: Last raw registry snapshot (the delta baseline) and the
        #: registry generation it was taken under.
        self._baseline: Dict[str, Dict[str, Any]] = {}
        self._baseline_generation: Optional[int] = None
        self._directory.mkdir(parents=True, exist_ok=True)
        self._open_part()

    # -------------------------------------------------------------- writing
    def write_event(self, event: TraceEvent) -> None:
        """Tracer-sink entry: stream one trace event (one JSON line)."""
        if self.closed:
            return
        record = event.to_json()
        record["record"] = "event"
        self._write_record(record)
        self.events_written += 1

    def flush_metrics(self, registry: MetricsRegistry,
                      t: Optional[float] = None) -> bool:
        """Write the metric deltas accumulated since the last flush.

        Returns True when a record was written (no-op when nothing
        changed).  A registry generation change (reset underneath the
        stream) discards the baseline so the next flush restarts from
        zero instead of emitting negative deltas.
        """
        if self.closed:
            return False
        if registry.generation != self._baseline_generation:
            self._baseline = {}
            self._baseline_generation = registry.generation
        snapshot = registry.snapshot()
        delta = _delta_snapshot(snapshot, self._baseline)
        self._baseline = snapshot
        if not delta:
            return False
        record: Dict[str, Any] = {"record": "metrics", "delta": True,
                                  "metrics": delta}
        if t is not None:
            record["t"] = round(float(t), 6)
        self._write_record(record)
        self.metrics_flushes += 1
        return True

    def close(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Final metrics flush (when a registry is given), then close."""
        if self.closed:
            return
        if registry is not None:
            self.flush_metrics(registry)
        self.closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------- internal
    def _part_path(self, part: int) -> Path:
        return self._directory / f"{self._stem}.{part:05d}{self._suffix}"

    def _open_part(self) -> None:
        part = len(self.paths)
        path = self._part_path(part)
        self._fh = path.open("w")
        self.paths.append(path)
        self._bytes = 0
        self._part_records = 0
        header = {"record": "header", "schema": TELEMETRY_SCHEMA,
                  "stream": self._stem, "part": part}
        header.update(self._meta)
        line = _encode(header) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self._bytes += len(line)

    def _write_record(self, record: Dict[str, Any]) -> None:
        line = _encode(record) + "\n"
        # Rotate BEFORE the write that would overflow — but never rotate
        # a part that holds only its header, or an oversized single
        # record would rotate forever without landing anywhere.
        if (self._part_records > 0
                and self._bytes + len(line) > self.max_bytes):
            self._fh.close()
            self.rotations += 1
            self._open_part()
        self._fh.write(line)
        self._fh.flush()
        self._bytes += len(line)
        self._part_records += 1


def _delta_snapshot(snapshot: Dict[str, Dict[str, Any]],
                    baseline: Dict[str, Dict[str, Any]]
                    ) -> Dict[str, Dict[str, Any]]:
    """What changed between two registry snapshots, in mergeable form.

    Counters carry the increment, gauges the current value (last-write-
    wins merges correctly), histograms the count/sum/bucket increments
    with the *cumulative* min/max (min-of-mins merging stays exact).
    """
    delta: Dict[str, Dict[str, Any]] = {}
    for name, cur in snapshot.items():
        prev = baseline.get(name)
        kind = cur.get("kind")
        if kind == "counter":
            inc = cur.get("value", 0.0) - (prev.get("value", 0.0)
                                           if prev else 0.0)
            if inc:
                delta[name] = {"kind": "counter", "value": inc}
        elif kind == "gauge":
            if prev is None or cur.get("value") != prev.get("value"):
                delta[name] = {"kind": "gauge", "value": cur.get("value")}
        elif kind == "histogram":
            d = _delta_histogram(cur, prev)
            if d is not None:
                delta[name] = d
    return delta


def _delta_histogram(cur: Dict[str, Any],
                     prev: Optional[Dict[str, Any]]
                     ) -> Optional[Dict[str, Any]]:
    prev_count = prev.get("count", 0) if prev else 0
    count = cur.get("count", 0) - prev_count
    if not count:
        return None
    prev_buckets = {b: c for b, c in (prev.get("buckets") or [])} \
        if prev else {}
    buckets = [[bound, seen - prev_buckets.get(bound, 0)]
               for bound, seen in (cur.get("buckets") or [])]
    total = cur.get("sum", 0.0) - (prev.get("sum", 0.0) if prev else 0.0)
    return {"kind": "histogram", "count": count, "sum": total,
            "mean": total / count,
            "min": cur.get("min", 0.0), "max": cur.get("max", 0.0),
            "buckets": buckets,
            "overflow": cur.get("overflow", 0)
            - (prev.get("overflow", 0) if prev else 0)}


__all__ = ["TelemetryStream", "DEFAULT_MAX_BYTES"]
