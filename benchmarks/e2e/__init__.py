"""End-to-end benchmark of the XRON reproduction (see README.md).

Four workloads that each put a different layer on the blocking path,
eight end-to-end metrics, and an outside-in per-layer trace.  Run with
``python3 benchmarks/e2e/run.py`` (or ``PYTHONPATH=src python -m
benchmarks.e2e``); the contract the driver checks is in BENCHMARK.json.
"""
