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
    def test_figures_metrics_writes_sidecar(self, capsys, tmp_path):
        # --no-cache forces simulation so sim-level metrics are present
        # regardless of the developer's .comb_cache state.
        rc = main(["figures", "--ids", "fig13", "--out", str(tmp_path),
                   "--no-plots", "--metrics", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert "schema_version" in doc
        assert "sim.pww.batches" in doc["metrics"]["counters"]
        assert "executor.points_simulated" in doc["metrics"]["counters"]
        assert doc["executor"]["misses"] > 0  # hit/miss stats merged in
        assert "metrics.json" in out

    def test_figures_metrics_values_unchanged(self, capsys, tmp_path):
        main(["figures", "--ids", "fig13", "--out", str(tmp_path),
              "--no-plots"])
        plain = json.loads((tmp_path / "fig13.json").read_text())
        main(["figures", "--ids", "fig13", "--out", str(tmp_path),
              "--no-plots", "--metrics"])
        observed = json.loads((tmp_path / "fig13.json").read_text())
        capsys.readouterr()
        assert observed == plain


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
        assert "trace" in out.lower() or str(tmp_path) in out

    def test_trace_polling_point(self, capsys, tmp_path):
        rc = main(["trace", "polling", "--system", "Portals", "--size", "64",
                   "--interval", "10000", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        metrics = json.loads((tmp_path / "polling.metrics.json").read_text())
        counters = metrics["metrics"]["counters"]
        assert counters.get("sim.poll.hits", 0) > 0

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
        assert "unknown trace target" in err_or_out.out + err_or_out.err


class TestParsing:
    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["polling", "--system", "Elan"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
