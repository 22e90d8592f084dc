"""The armed `repro serve` run writes the recorded telemetry and
checkpoint bytes (harness and regeneration: `serve_golden.py`)."""

from __future__ import annotations

import json

from tests.core import serve_golden


def test_serve_telemetry_and_checkpoint_match_golden():
    golden = json.loads(serve_golden.FIXTURE.read_text())
    assert (golden["seed"], golden["world_seed"], golden["duration_s"]) == \
        (serve_golden.SEED, serve_golden.WORLD_SEED,
         serve_golden.DURATION_S)
    record = serve_golden.digests()
    # The run reaches every report-path fault the armed instant handles.
    for kind in ("fault_report_drop", "fault_report_stale",
                 "fault_membership_churn", "fault_probe_blackout"):
        assert record["event_kinds"].get(kind, 0) > 0, kind
    for key in ("event_kinds", "fault_counters", "telemetry_lines",
                "telemetry_sha256", "checkpoint_sha256"):
        assert record[key] == golden[key], key
