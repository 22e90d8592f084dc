"""Experiment harness: one module per paper table/figure.

Every module exposes a ``run(...)`` function returning a result dataclass
with the numbers the paper reports, plus ``lines()`` producing the
printable rows/series.  ``benchmarks/`` wraps these with pytest-benchmark.

``registry`` describes every experiment declaratively (name, callable,
quick/full kwargs, tags, deterministic seed); ``orchestrator`` executes
registry entries sequentially or across a process pool with timeouts and
bounded retries; ``runner`` is the CLI over both and writes the JSON run
manifest via ``export``.

Index (the full mapping is EXPERIMENTS.md, "Per-experiment index"):

========  ===================================================
fig01/02  Internet vs premium latency / loss over a day
fig03     CDF of time fraction with high latency / loss
fig04     Egress-pricing CDF (premium 7.6x median)
fig05     Three-peak demand, daily (aggregate + example pair)
fig07     Intra-pair link similarity
fig08     Directional asymmetry of link states
fig09     Degradation-duration histogram
fig11     Two-week demand pattern
fig12     DTFT prediction vs ground truth
fig13-15  60-day QoE comparison (stall, fps, audio)
tab2/3    Full-mesh latency / loss percentiles
fig16     Long/short degradation case studies
fig17     Cost analysis (hops, premium share, containers, cost)
fig18     Fast-reaction ablation
fig19     Asymmetric-forwarding ablation
fig20     Proactive-vs-reactive scaling
========  ===================================================
"""
