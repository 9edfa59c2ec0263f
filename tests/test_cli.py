"""Tests: the ``comb`` command-line interface."""

import json

import pytest

from repro.cli import main


class TestPointCommands:
    def test_polling(self, capsys):
        rc = main(["polling", "--system", "GM", "--size", "100",
                   "--interval", "10000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability" in out and "bandwidth" in out

    def test_pww(self, capsys):
        rc = main(["pww", "--system", "Portals", "--size", "100",
                   "--interval", "100000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "post" in out and "wait" in out

    def test_pww_with_tests_in_work(self, capsys):
        rc = main(["pww", "--system", "GM", "--interval", "1000000",
                   "--tests-in-work", "1"])
        assert rc == 0

    def test_offload(self, capsys):
        rc = main(["offload", "--system", "Portals"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "provides application offload" in out

    def test_netperf(self, capsys):
        rc = main(["netperf", "--system", "GM", "--mode", "busywait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "availability" in out


class TestFiguresCommand:
    def test_single_figure_with_export(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--out", str(tmp_path),
                   "--no-plots"])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "fig13.csv").exists()
        data = json.loads((tmp_path / "fig13.json").read_text())
        assert data["fig_id"] == "fig13"
        assert "[PASS]" in out

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        from repro.analysis.claims import ALL_CLAIMS, ClaimResult

        monkeypatch.setitem(ALL_CLAIMS, "fig13", lambda fig: [
            ClaimResult("fig13", "forced failure", False, "monkeypatched"),
        ])
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--no-ledger"])
        assert "[FAIL] forced failure" in capsys.readouterr().out
        assert rc == 1

    def test_plots_rendered_by_default(self, capsys):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Work Interval" in out


class TestMetricsFlag:
    @pytest.mark.parametrize("cmd", ["figures", "report"])
    def test_metrics_is_an_argument_error(self, capsys, cmd):
        """``comb trace`` is the observed run; a sweep has no sidecar."""
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--metrics"])
        assert exc.value.code == 2
        assert "--metrics" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_pww_point_exports_all_three(self, capsys, tmp_path):
        rc = main(["trace", "pww", "--system", "GM", "--size", "32",
                   "--interval", "10000", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        trace = json.loads((tmp_path / "pww.trace.json").read_text())
        assert trace["otherData"]["schema_version"] >= 1
        phases = {ev["ph"] for ev in trace["traceEvents"]}
        assert {"M", "X"} <= phases  # metadata + pww slices
        assert (tmp_path / "pww.timeline.csv").exists()
        metrics = json.loads((tmp_path / "pww.metrics.json").read_text())
        assert metrics["metrics"]["counters"]["sim.pww.batches"] > 0
        # The same sidecar shape as a figure target's.
        assert metrics["executor"]["misses"] == 1
        assert metrics["metrics"]["counters"][
            "executor.points_simulated"] == 1
        assert "trace" in out.lower() or str(tmp_path) in out

    def test_trace_polling_point(self, capsys, tmp_path):
        rc = main(["trace", "polling", "--system", "Portals", "--size", "64",
                   "--interval", "10000", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        metrics = json.loads((tmp_path / "polling.metrics.json").read_text())
        counters = metrics["metrics"]["counters"]
        assert counters.get("sim.poll.hits", 0) > 0

    def test_trace_pww_attribution_is_the_measured_wait(self, capsys,
                                                         tmp_path):
        """A traced point carries point markers, so its attribution covers
        exactly the measured batches (warmup dropped) and names its
        system."""
        from repro.config import gm_system
        from repro.core import PwwConfig, run_pww

        rc = main(["trace", "pww", "--system", "GM", "--size", "32",
                   "--interval", "10000", "--attribution",
                   "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads((tmp_path / "pww.attribution.json").read_text())
        (point,) = doc["points"]
        cfg = PwwConfig(msg_bytes=32 * 1024, work_interval_iters=10_000)
        measured = run_pww(gm_system(), cfg)
        assert point["system"] == "GM"
        assert point["windows"] == cfg.batches
        assert point["total_s"] == pytest.approx(
            measured.wait_s * cfg.batches, rel=0, abs=1e-12)

    def test_trace_polling_prints_kernel_profile(self, capsys, tmp_path):
        rc = main(["trace", "polling", "--system", "Portals",
                   "--interval", "1000", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("[worker] node0.cpu0: kernel ")
        assert "[support] node1.cpu0: kernel " in out
        assert out.count("  portals_rx ") == 2
        assert out.count("  shares: user=") == 2

    def test_trace_figure(self, capsys, tmp_path):
        rc = main(["trace", "fig13", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        trace = json.loads((tmp_path / "fig13.trace.json").read_text())
        assert len(trace["traceEvents"]) > 0
        metrics = json.loads((tmp_path / "fig13.metrics.json").read_text())
        assert "executor.points_simulated" in metrics["metrics"]["counters"]

    def test_trace_unknown_target(self, capsys, tmp_path):
        rc = main(["trace", "fig99", "--out", str(tmp_path)])
        err_or_out = capsys.readouterr()
        assert rc == 2
        text = err_or_out.out + err_or_out.err
        assert "unknown trace target" in text
        # Figure targets resolve through the whole registry.
        assert "scale_halo" in text and "fig11_ci" in text


class TestParsing:
    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["polling", "--system", "Elan"])

    def test_unknown_figure_id_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--ids", "fig04", "fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "fig99" in err
        # The message names the valid ids.
        assert "scale_halo" in err and "fig11_ci" in err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["polling", "--interval", "0"],
        ["polling", "--queue-depth", "0"],
        ["pww", "--interval", "-1"],
        ["pattern", "halo", "--warmup", "-1"],
        ["pattern", "halo", "--ghost-width", "0"],
        ["pattern", "halo", "--ranks", "1"],
        ["trace", "halo", "--ranks", "1"],
        ["trace", "polling", "--interval", "0"],
        ["trace", "pww", "--interval", "-1"],
        ["pww", "--tests-in-work", "-3"],
        ["pattern", "halo3d", "--topology", "fattree", "--arity", "-2"],
        ["figures", "--per-decade", "0"],
        ["report", "--per-decade", "-1"],
        ["trace", "fig11", "--per-decade", "0"],
    ], ids=" ".join)
    def test_out_of_range_point_option_is_argument_error(self, argv,
                                                          capsys):
        """A value the point's config would reject fails in the parser:
        exit 2 and a usage message, not a ``ValueError`` traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err and "must be >= " in err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(argv, message, id=" ".join(argv))
        for argv, message in [
            (["figures", "--ci-width", "-1"], "argument --ci-width: must be"),
            (["figures", "--ci-width", "nan"], "argument --ci-width: must be"),
            (["report", "--ci-width", "inf"], "argument --ci-width: must be"),
            (["pattern", "halo3d", "--arity", "4"],
             "topology 'crossbar' takes no arity"),
            (["pattern", "halo3d", "--topology", "fattree", "--arity", "3"],
             "fat-tree arity must be an even number"),
            (["pattern", "halo3d", "--grid", "3", "3", "--ranks", "4"],
             "grid (3, 3) holds 9 ranks, not 4"),
        ]
    ])
    def test_bad_flag_is_one_error_line(self, argv, message, capsys):
        """A non-finite or negative ``--ci-width``, an arity the
        topology cannot take and a grid that does not hold ``--ranks``
        fail at parse time: exit 2 and one ``error:`` line, not a
        traceback or a sweep that runs every point to the ``--reps``
        cap."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["polling"], ["pww"], ["pattern", "halo"], ["offload"], ["netperf"],
        ["compare"], ["trace", "polling"],
    ], ids=" ".join)
    @pytest.mark.parametrize("size", ["-1", "inf", "nan"])
    def test_bad_size_is_one_error_line(self, command, size, capsys):
        """A negative or non-finite ``--size`` fails in the parser: exit
        2 and one ``error:`` line, not a ``ValueError`` traceback."""
        with pytest.raises(SystemExit) as exc:
            main([*command, "--size", size])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --size" in errors[0]
        assert "Traceback" not in err


def test_history_filters_baseline_kinds(tmp_path, capsys):
    """``comb history --kind`` offers every executor kind, so the
    ledger's ping-pong and netperf point records can be selected."""
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({
        "systems": [{"preset": "GM"}],
        "experiments": [{"kind": "pingpong", "sizes_kb": [0]},
                        {"kind": "netperf", "config": {"delay_iters": 1000}}],
    }))
    ledger = ["--ledger-dir", str(tmp_path / "ledger")]
    assert main(["scenario", str(spec), *ledger]) == 0
    capsys.readouterr()
    for kind in ("pingpong", "netperf"):
        assert main(["history", "--kind", kind, "--format", "json",
                     *ledger]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points_by_kind"] == {kind: 1}


def test_closed_stdout_exits_1_without_traceback():
    """``comb compare | head -1``: a reader that hangs up early ends the
    command quietly with exit 1."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "repro.cli", "compare"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()  # hang up before the first write
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
