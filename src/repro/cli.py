"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — regenerate paper tables/figures: every argument
  after it goes to the experiments runner (``--full``, ``--only``,
  ``--parallel``, ... — ``repro experiments --help`` lists them).
* ``run`` — simulate a window for one system variant and print the
  operator summary (QoE, tails, bill).
* ``demo`` — the event-driven deployment, minute-scale, live mechanisms.
* ``serve`` — the same deployment as an always-on soak service: a
  compressed simulated clock paced against the wall, rotating chaos,
  health heartbeats, checkpoint persistence and ``--resume``.
* ``info`` — the deployment at a glance (regions, links, pricing).
* ``obs`` — inspect telemetry JSONL files: ``obs summary run.jsonl``
  (accepts several files or a quoted glob over rotated stream parts)
  and ``obs profile`` for the control-epoch phase breakdown.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import runner as experiments_runner

VARIANTS = {
    "xron": "xron",
    "internet-only": "internet_only",
    "premium-only": "premium_only",
    "xron-basic": "xron_basic",
    "xron-premium": "xron_premium",
    "xron-symmetric": "xron_symmetric",
}


def _write_telemetry(path: str, hub, **meta) -> None:
    """Dump a capture window's events + metrics as telemetry JSONL."""
    from repro.obs.export import write_jsonl

    out = write_jsonl(path, hub.events_json(),
                      metrics=hub.metrics.snapshot(), meta=meta or None)
    print(f"telemetry: {out}", file=sys.stderr)


def _glob_paths(patterns: List[str]) -> Optional[List[str]]:
    """Expand glob patterns (quoted through the shell) in file order.

    Literal paths pass through untouched; glob matches are sorted, so
    zero-padded stream parts (``run.00000.jsonl``, ...) arrive in
    emission order.  Returns None (after printing) when a pattern
    matches nothing.
    """
    import glob as _glob

    paths: List[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = sorted(_glob.glob(pattern))
            if not matches:
                print(f"error: no files match {pattern!r}", file=sys.stderr)
                return None
            paths.extend(matches)
        else:
            paths.append(pattern)
    return paths


def _read_telemetry(args: argparse.Namespace):
    """Shared ``obs`` input path: expand, read, merge (or None on error)."""
    from repro.obs.export import (TelemetryFormatError, read_jsonl,
                                  read_many)

    paths = _glob_paths(args.paths)
    if paths is None:
        return None
    allow = getattr(args, "allow_partial", False)
    try:
        if len(paths) == 1:
            return read_jsonl(paths[0], allow_partial_tail=allow)
        return read_many(paths, allow_partial_tail=allow)
    except (OSError, TelemetryFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.summary import render, summarize

    doc = _read_telemetry(args)
    if doc is None:
        return 1
    summary = summarize(doc)
    if summary.empty:
        print(f"error: {', '.join(args.paths)} holds no events and no "
              f"metrics", file=sys.stderr)
        return 1
    try:
        for line in render(summary, max_metrics=args.max_metrics):
            print(line)
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe: not an error, but
        # detach stdout so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_events
    from repro.obs.profile import render as render_profile

    doc = _read_telemetry(args)
    if doc is None:
        return 1
    profile = profile_events(doc.events)
    if not profile.phases:
        print(f"error: {', '.join(args.paths)} holds no algo_step span "
              f"events to profile", file=sys.stderr)
        return 1
    for line in render_profile(profile, max_pairs=args.max_pairs):
        print(line)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core import SimulationConfig, XRONSystem, variants
    from repro.underlay.config import UnderlayConfig

    make = getattr(variants, VARIANTS[args.variant])
    horizon = (args.start_hour + args.hours) * 3600.0 + 3600.0
    system = XRONSystem(
        seed=args.seed,
        underlay_config=UnderlayConfig(horizon_s=max(horizon, 2 * 86400.0)),
        sim_config=SimulationConfig(epoch_s=args.epoch, eval_step_s=args.step,
                                    seed=args.seed))
    if args.hours <= 0:
        print("error: pass a positive --hours", file=sys.stderr)
        return 2
    try:
        simulator = system.simulator(make())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"simulating {args.hours:g} h of '{args.variant}' from "
          f"{args.start_hour:g}:00 UTC (seed {args.seed}) ...")
    window = (args.start_hour * 3600.0, args.hours * 3600.0)
    if args.telemetry:
        from repro import obs
        with obs.capture() as hub:
            result = simulator.run(*window)
        _write_telemetry(args.telemetry, hub, command="run",
                         variant=args.variant)
    else:
        result = simulator.run(*window)
    qoe = result.qoe_summary()
    lat = result.latency_percentiles(weighted=False)
    loss = result.loss_percentiles(weighted=False)
    bill = result.ledger.breakdown()
    print(f"stall ratio {qoe.stall_ratio:.4f} | fps {qoe.mean_fps:.1f} | "
          f"fluency {qoe.mean_fluency:.2f}")
    print(f"latency avg/p99/p99.9: {lat['average']:.0f}/{lat['99%']:.0f}/"
          f"{lat['99.9%']:.0f} ms | loss p99.9: {loss['99.9%']:.3f}%")
    print(f"premium share {result.premium_traffic_share() * 100:.1f}% | "
          f"network bill {bill.network_cost:.1f} | containers "
          f"{bill.container_cost:.1f}")
    return 0


def _build_demo_system(args: argparse.Namespace, slo_engine):
    """Construct the demo deployment; returns (system, start_s, regions).

    The default demo is the full region set on a stochastic underlay;
    ``--chaos`` swaps in the chaos-reaction testbed — a calm 3-region
    underlay with one injected 4000 ms degradation riding under a
    probing blackout, so the local loop never sees the signal and the
    SLO engine has a guaranteed fault-attributable breach to report.
    """
    if args.chaos:
        from repro.experiments.base import (TESTBED_START_S, quiet_testbed,
                                            testbed_engine)
        from repro.faults import FaultSchedule, probe_blackout
        from repro.underlay.events import DegradationEvent
        from repro.underlay.linkstate import LinkType
        from repro.underlay.scenarios import inject_events

        underlay, demand = quiet_testbed(args.seed)
        pair = max(demand.pairs, key=lambda p: demand.pair_scale(*p))
        start = TESTBED_START_S
        inject_events(underlay, pair[0], pair[1], LinkType.INTERNET,
                      [DegradationEvent(start + 90.0, 60.0, 4000.0, 0.3)])
        schedule = FaultSchedule.of(
            probe_blackout(start + 70.0, 120.0, region=pair[0]))
        system = testbed_engine(
            args.seed, 60.0, testbed=(underlay, demand),
            tracked_pairs=[pair], measure_interval_s=0.5,
            faults=schedule, slo=slo_engine)
        return system, start, len(underlay.codes)

    from repro.core.config import SimulationConfig
    from repro.core.system import XRONSystem
    from repro.underlay.config import UnderlayConfig

    deployment = XRONSystem(
        seed=args.seed,
        underlay_config=UnderlayConfig(horizon_s=6 * 3600.0),
        sim_config=SimulationConfig(epoch_s=60.0, seed=args.seed))
    return (deployment.event_engine(slo=slo_engine), 2 * 3600.0,
            len(deployment.regions))


def _live_telemetry(hub, args: argparse.Namespace, command: str,
                    mode: str):
    """Arm the live telemetry `demo` and `serve` share: a ``--stream``
    to `args.stream` and an ``--slo`` engine for the system to arm.

    Returns the engine (None without ``--slo``) and the call that, once
    the run is over, prints its report to stdout, closes it and the
    stream, and prints the stream's summary line to stderr.
    """
    stream = None
    if args.stream:
        stream = hub.attach_stream(
            args.stream, max_bytes=args.stream_max_kb * 1024,
            meta={"command": command, "mode": mode})
    engine = None
    if args.slo:
        from repro.obs.slo import SLOEngine
        from repro.qoe.metrics import qoe_badness
        engine = SLOEngine(badness=qoe_badness())

    def finish() -> None:
        if engine is not None:
            for line in engine.render_report():
                print(line)
            engine.close()
        if stream is not None:
            hub.detach_stream(close=True)
            print(f"stream: {stream.events_written:,} events across "
                  f"{len(stream.paths)} part file(s), last "
                  f"{stream.paths[-1]}", file=sys.stderr)

    return engine, finish


def _run_demo(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro import obs

    duration_s = args.minutes * 60.0
    capture = bool(args.telemetry or args.stream or args.slo)
    with (obs.capture() if capture else nullcontext()) as hub:
        engine, finish = _live_telemetry(
            hub, args, "demo", "chaos" if args.chaos else "default")
        system, start, n_regions = _build_demo_system(args, engine)
        print(f"event-driven run: {args.minutes:g} min across "
              f"{n_regions} regions"
              + (" (chaos testbed)" if args.chaos else "") + " ...")
        result = system.run(start, duration_s)
        _print_demo_result(result)
        finish()
    if args.telemetry:
        _write_telemetry(args.telemetry, hub, command="demo")
    return 0


def _build_serve_system(args: argparse.Namespace, slo_engine, schedule):
    """Construct the soak deployment; returns (system, region_codes)."""
    from dataclasses import replace

    from repro.controlplane import membership, regional_control
    from repro.core.config import SimulationConfig
    from repro.core.system import XRONSystem
    from repro.core.variants import xron
    from repro.resilience.config import resilience
    from repro.underlay.config import UnderlayConfig
    from repro.underlay.regions import default_regions

    regions = default_regions()[:max(2, args.regions)]
    duration_s = args.hours * 3600.0 + args.minutes * 60.0
    deployment = XRONSystem(
        regions=regions, seed=args.seed,
        underlay_config=UnderlayConfig(
            horizon_s=duration_s + 4 * args.epoch_s),
        sim_config=SimulationConfig(epoch_s=args.epoch_s, seed=args.seed,
                                    demand_scale=0.05, initial_gateways=4))
    system = deployment.event_engine(
        # Static fleets (like the demo's chaos testbed): the autoscaler
        # would shrink a lightly-loaded region to one gateway, and
        # `crash_gateways` always spares the last survivor — scheduled
        # crashes would silently become no-ops.
        replace(xron(), elastic=False),
        faults=schedule,
        resilience=resilience(),
        # Partition tolerance: the soak rotation now includes control
        # partitions and membership churn, so the service arms the
        # subsystems that answer them (soft-state liveness + regional
        # degraded-mode control).
        membership=membership(),
        regional=regional_control(),
        slo=slo_engine)
    return system, [r.code for r in regions]


def _serve_region_codes(args: argparse.Namespace):
    from repro.underlay.regions import default_regions

    return [r.code for r in default_regions()[:max(2, args.regions)]]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on soak service (`repro.core.service`)."""
    import json as _json

    from repro.core.service import (ServiceConfig, ServiceError, XRONService,
                                    build_soak_schedule)
    from repro.faults.spec import FaultSchedule

    duration_s = args.hours * 3600.0 + args.minutes * 60.0
    if duration_s <= 0:
        print("error: pass a positive --hours/--minutes window",
              file=sys.stderr)
        return 2
    envelope = None
    if args.resume:
        if not args.checkpoint:
            print("error: --resume needs --checkpoint PATH", file=sys.stderr)
            return 2
        try:
            envelope = XRONService.load_envelope(args.checkpoint)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot resume from {args.checkpoint}: {exc}",
                  file=sys.stderr)
            return 2
        # The envelope is authoritative: same seed, same schedule —
        # fault ids are schedule-order indices, so resuming under a
        # different schedule would mis-map the fired set.
        args.seed = int(envelope.get("seed", args.seed))
        schedule = FaultSchedule.from_json(envelope["schedule"])
    elif args.chaos:
        schedule = build_soak_schedule(
            0.0, duration_s, _serve_region_codes(args),
            period_s=args.chaos_period)
    else:
        schedule = FaultSchedule.empty()

    from repro import obs
    with obs.capture() as hub:
        engine, finish = _live_telemetry(
            hub, args, "serve", "chaos" if schedule else "calm")
        system, codes = _build_serve_system(args, engine, schedule)
        config = ServiceConfig(
            duration_s=duration_s, compress=args.compress,
            heartbeat_s=args.heartbeat_s, checkpoint_path=args.checkpoint,
            verbose=not args.quiet)
        service = XRONService(system, config)
        if envelope is not None:
            t = service.restore_from(envelope)
            config.duration_s = max(0.0, duration_s - t)
            print(f"resumed from {args.checkpoint} at t={t:,.0f}s "
                  f"({config.duration_s:,.0f}s remaining)")
        print(f"serving {duration_s / 3600.0:g} h across "
              f"{len(codes)} regions"
              + (f", compressed {args.compress:g}x"
                 if args.compress else ", unpaced")
              + (f", {len(schedule.specs)} scheduled faults"
                 if schedule else "")
              + " ... (SIGTERM drains gracefully)")
        try:
            result = service.run()
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"serve: {result.stop_reason} at t={result.sim_t1:,.0f}s "
              f"({result.sim_t1 - result.sim_t0:,.0f}s simulated in "
              f"{result.wall_s:.1f}s wall)")
        print(f"events {result.events_processed:,} | epochs "
              f"{result.epochs} | heartbeats {result.heartbeats} | "
              f"max lag {result.max_lag_s:.2f}s")
        if result.health_first and result.health_last:
            h0, h1 = result.health_first, result.health_last
            print(f"health: rss {h0['rss_kb']} -> {h1['rss_kb']} kB | "
                  f"fds {h0['open_fds']} -> {h1['open_fds']} | "
                  f"children {h1['children']}")
        finish()
        if args.health_out:
            health = system.health(result.sim_t1)
            doc = {
                "stop_reason": result.stop_reason,
                "drained": result.drained,
                "sim_t0": result.sim_t0, "sim_t1": result.sim_t1,
                "wall_s": result.wall_s,
                "events": result.events_processed,
                "epochs": result.epochs,
                "max_lag_s": result.max_lag_s,
                "health_first": result.health_first,
                "health_last": result.health_last,
                "heartbeats": service.heartbeats,
                "fault_counters": result.eventsim.fault_counters,
                "fault_kind_counters": health.get("fault_kind_counters"),
                "fault_state": health.get("fault_state"),
                "membership_size": health.get("membership_size"),
                "membership_counters": result.eventsim.membership_counters,
                "active_partitions": health.get("active_partitions", 0),
                "partition_counters": result.eventsim.partition_counters,
                "checkpoint": result.checkpoint_path,
            }
            with open(args.health_out, "w") as fh:
                _json.dump(doc, fh, indent=2)
            print(f"health: {args.health_out}", file=sys.stderr)
    return 0 if result.drained else 1


def _print_demo_result(result) -> None:
    print(f"events {result.events_processed:,} | epochs "
          f"{len(result.control_outputs)} | detections {result.detections}"
          f" | probe MB {result.probe_bytes / 1e6:.0f}")
    for pair, record in result.sessions.items():
        if not record.times:
            continue
        lat = record.latency_array()
        print(f"  {pair[0]}->{pair[1]}: {len(record.times)} samples, "
              f"avg {lat.mean():.0f} ms, backup "
              f"{record.backup_fraction() * 100:.1f}%")


def _cmd_info(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.underlay.topology import build_underlay

    u = build_underlay(seed=args.seed)
    print(f"regions ({len(u.regions)}):")
    for r in u.regions:
        print(f"  {r.code}  {r.name:<12} UTC{r.utc_offset:+g}  "
              f"{r.continent}")
    links = ~np.eye(len(u.regions), dtype=bool)
    lat_i, lat_p = (tier[links] for tier in u.table.base_latency_ms)
    print(f"directed links per tier: {len(lat_i)}")
    print(f"base latency, Internet: median {np.median(lat_i):.0f} ms, "
          f"premium: {np.median(lat_p):.0f} ms")
    ratios = u.pricing.premium_to_internet_ratios()
    print(f"premium fee multiple: median {np.median(ratios):.1f}x, "
          f"max {ratios.max():.1f}x")
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer (the root of every
    named random stream)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The runner parses its own flags (`main` hands them over), so
    # `--help` after the command is the runner's too.
    sub.add_parser("experiments", add_help=False,
                   help="regenerate paper tables/figures (the experiments "
                        "runner: see `repro experiments --help`)")

    p_run = sub.add_parser("run", help="simulate one system variant")
    p_run.add_argument("--variant", choices=sorted(VARIANTS),
                       default="xron")
    p_run.add_argument("--hours", type=float, default=1.0)
    p_run.add_argument("--start-hour", type=float, default=9.0)
    p_run.add_argument("--epoch", type=float, default=300.0)
    p_run.add_argument("--step", type=float, default=10.0)
    p_run.add_argument("--seed", type=_seed, default=42)
    p_run.add_argument("--telemetry", default=None, metavar="PATH",
                       help="capture metrics/trace events to a JSONL file")
    p_run.set_defaults(fn=_cmd_run)

    p_demo = sub.add_parser("demo", help="event-driven deployment demo")
    p_demo.add_argument("--minutes", type=float, default=3.0)
    p_demo.add_argument("--seed", type=_seed, default=11)
    p_demo.add_argument("--telemetry", default=None, metavar="PATH",
                        help="capture metrics/trace events to a JSONL file")
    p_demo.add_argument("--stream", default=None, metavar="PATH",
                        help="stream telemetry live to rotated JSONL parts "
                             "next to PATH (crash-safe; see obs summary)")
    p_demo.add_argument("--stream-max-kb", type=int, default=256,
                        metavar="KB",
                        help="rotate stream parts at this size "
                             "(default 256)")
    p_demo.add_argument("--slo", action="store_true",
                        help="arm the per-stream SLO engine (QoE-based "
                             "badness) and print its ledger")
    p_demo.add_argument("--chaos", action="store_true",
                        help="run the chaos testbed: one degradation "
                             "hidden by a probing blackout")
    p_demo.set_defaults(fn=_run_demo)

    p_serve = sub.add_parser(
        "serve", help="always-on soak service (compressed clock, chaos, "
                      "checkpoint/resume)")
    p_serve.add_argument("--hours", type=float, default=0.0,
                         help="simulated hours to serve")
    p_serve.add_argument("--minutes", type=float, default=0.0,
                         help="simulated minutes to serve (adds to --hours)")
    p_serve.add_argument("--compress", type=float, default=0.0,
                         metavar="X",
                         help="pace X simulated seconds per wall second "
                              "(default 0 = flat out)")
    p_serve.add_argument("--seed", type=_seed, default=11)
    p_serve.add_argument("--regions", type=int, default=3,
                         help="how many of the default regions to deploy "
                              "(default 3)")
    p_serve.add_argument("--epoch-s", type=float, default=60.0,
                         help="control epoch length, seconds (default 60)")
    p_serve.add_argument("--chaos", action="store_true",
                         help="run under the rotating soak fault schedule")
    p_serve.add_argument("--chaos-period", type=float, default=600.0,
                         metavar="S",
                         help="seconds between scheduled faults "
                              "(default 600)")
    p_serve.add_argument("--heartbeat-s", type=float, default=300.0,
                         metavar="S",
                         help="simulated seconds between health heartbeats "
                              "(default 300)")
    p_serve.add_argument("--stream", default=None, metavar="PATH",
                         help="stream telemetry live to rotated JSONL parts")
    p_serve.add_argument("--stream-max-kb", type=int, default=256,
                         metavar="KB")
    p_serve.add_argument("--slo", action="store_true",
                         help="arm the per-stream SLO engine")
    p_serve.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="persist service checkpoint envelopes here "
                              "(atomic; also the --resume source)")
    p_serve.add_argument("--resume", action="store_true",
                         help="warm-boot from the --checkpoint envelope and "
                              "finish the remaining window")
    p_serve.add_argument("--health-out", default=None, metavar="PATH",
                         help="write the run's health/heartbeat JSON here")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-heartbeat stderr lines")
    p_serve.set_defaults(fn=_cmd_serve)

    p_info = sub.add_parser("info", help="deployment at a glance")
    p_info.add_argument("--seed", type=_seed, default=1)
    p_info.set_defaults(fn=_cmd_info)

    p_obs = sub.add_parser("obs", help="inspect telemetry JSONL files")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_sum = obs_sub.add_parser("summary",
                               help="human-readable telemetry summary")
    p_sum.add_argument("paths", nargs="+",
                       help="telemetry JSONL file(s); quoted globs "
                            "(e.g. 'run.*.jsonl') merge rotated parts")
    p_sum.add_argument("--max-metrics", type=int, default=40,
                       help="cap the metrics table (default 40)")
    p_sum.add_argument("--allow-partial", action="store_true",
                       help="tolerate a crash-truncated final line")
    p_sum.set_defaults(fn=_cmd_obs)
    p_prof = obs_sub.add_parser(
        "profile", help="control-epoch phase breakdown from algo_step "
                        "spans")
    p_prof.add_argument("paths", nargs="+",
                        help="telemetry JSONL file(s) or quoted globs")
    p_prof.add_argument("--max-pairs", type=int, default=10,
                        help="cap the per-pair attribution table "
                             "(default 10)")
    p_prof.add_argument("--allow-partial", action="store_true",
                        help="tolerate a crash-truncated final line")
    p_prof.set_defaults(fn=_cmd_obs_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "experiments":
        return experiments_runner.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.fn(args)
