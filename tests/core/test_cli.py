"""Tests for the command-line interface."""

import pytest

from repro.cli import VARIANTS, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_variant_choices_cover_all_factories():
    from repro.core import variants
    for factory_name in VARIANTS.values():
        assert hasattr(variants, factory_name)


def test_info_command(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "regions (11):" in out
    assert "premium fee multiple" in out


def test_run_command_small(capsys):
    rc = main(["run", "--hours", "0.1", "--step", "30", "--epoch", "180",
               "--variant", "premium-only", "--start-hour", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stall ratio" in out
    assert "premium share 100.0%" in out


@pytest.mark.parametrize("step", ["9", "7"])
def test_run_refuses_a_step_that_does_not_divide_the_epoch(capsys, step):
    rc = main(["run", "--hours", "0.1", "--epoch", "300", "--step", step])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: epoch_s 300 s is not a whole number "
                            f"of eval_step_s {step} s\n")
    assert "simulating" not in captured.out


def test_experiments_only_selector(capsys):
    rc = main(["experiments", "--only", "fig04"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 4" in out
    assert "Fig. 5" not in out


def test_experiments_is_the_runner_parser(capsys):
    """`repro experiments` hands its arguments to the runner's parser:
    the same listing, and every runner flag (`--retries` included)."""
    from repro.experiments import runner

    assert main(["experiments", "--list", "--tags", "fast"]) == 0
    via_cli = capsys.readouterr().out
    assert runner.main(["--list", "--tags", "fast"]) == 0
    assert via_cli == capsys.readouterr().out
    assert "fig04" in via_cli and "fig13" not in via_cli
    assert main(["experiments", "--retries", "0", "--list"]) == 0


def test_other_commands_reject_unknown_arguments():
    with pytest.raises(SystemExit):
        main(["info", "--retries", "0"])


def test_unknown_variant_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--variant", "warpspeed"])


def test_demo_chaos_streams_slo_and_profile_end_to_end(tmp_path, capsys):
    """The full observability loop through the CLI: a chaos demo with a
    rotating stream and the SLO engine, then summary + profile over the
    rotated parts."""
    stream = tmp_path / "soak" / "stream.jsonl"
    rc = main(["demo", "--minutes", "4", "--chaos", "--slo",
               "--stream", str(stream), "--stream-max-kb", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos testbed" in out
    assert "SLO 'interactive'" in out
    assert "breaches 1" in out

    parts = sorted((tmp_path / "soak").glob("stream.*.jsonl"))
    assert len(parts) >= 2  # the 32 KB budget forces rotation

    pattern = str(tmp_path / "soak" / "stream.*.jsonl")
    assert main(["obs", "summary", pattern]) == 0
    summary = capsys.readouterr().out
    assert "slo_breach" in summary
    assert "slo_recovered" in summary

    assert main(["obs", "profile", pattern]) == 0
    profile = capsys.readouterr().out
    assert "algo1.path_control" in profile
    assert "(all phases)" in profile

    from repro.obs.export import read_many
    (breach,) = read_many(parts).events_of("slo_breach")
    assert breach["cause_kind"] == "fault_probe_blackout"
    assert breach["cause_fault_id"] == 0


def test_serve_soak_checkpoint_and_resume(tmp_path, capsys):
    """The serve soak through the CLI: chaos window, drain checkpoint,
    then a resumed leg that finishes the window without replaying the
    fired crash (issue #9)."""
    import json

    checkpoint = tmp_path / "cp.json"
    health1 = tmp_path / "health1.json"
    rc = main(["serve", "--minutes", "10", "--chaos",
               "--chaos-period", "240", "--quiet", "--heartbeat-s", "120",
               "--checkpoint", str(checkpoint),
               "--health-out", str(health1)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve: completed" in out
    doc1 = json.loads(health1.read_text())
    assert doc1["drained"]
    assert doc1["fault_counters"]["gateways_crashed"] == 1
    assert doc1["fault_state"]["fired"] == [0]
    assert checkpoint.exists()

    # Resume from the mid-soak envelope: the window is already complete,
    # so the resumed leg is a no-op that still drains cleanly — and the
    # fired crash window is NOT replayed.
    health2 = tmp_path / "health2.json"
    rc = main(["serve", "--minutes", "10", "--resume", "--quiet",
               "--checkpoint", str(checkpoint),
               "--health-out", str(health2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resumed from" in out
    doc2 = json.loads(health2.read_text())
    assert doc2["drained"]
    # Counters travelled with the checkpoint: still exactly one crash.
    assert doc2["fault_counters"]["gateways_crashed"] == 1
    assert doc2["fault_state"]["fired"] == [0]


def test_serve_resume_requires_checkpoint(capsys):
    assert main(["serve", "--minutes", "1", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "demo", "serve", "info"])
def test_a_negative_seed_is_a_usage_error(command, capsys):
    """Regression: `--seed -3` used to reach numpy's SeedSequence and die
    with its "expected non-negative integer" traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-3"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: repro {command}" in err
    assert "--seed: must be a non-negative integer, got -3" in err


def test_serve_rejects_empty_window(capsys):
    assert main(["serve"]) == 2
    assert "positive" in capsys.readouterr().err
