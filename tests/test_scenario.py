"""Tests: the declarative scenario runner."""

import json

import pytest

from repro.scenario import (
    ScenarioError,
    apply_overrides,
    format_scenario_results,
    resolve_preset,
    run_scenario,
)


class TestPresetResolution:
    def test_core_presets(self):
        assert resolve_preset("gm").name == "GM"
        assert resolve_preset("Portals").name == "Portals"

    def test_extension_presets(self):
        assert resolve_preset("EMP").name == "EMP"
        assert resolve_preset("OffloadNIC").name == "OffloadNIC"

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            resolve_preset("Elan4")


class TestOverrides:
    def test_nested_dotted_path(self, portals):
        out = apply_overrides(portals, {"portals.tx_window_pkts": 9})
        assert out.portals.tx_window_pkts == 9
        assert portals.portals.tx_window_pkts != 9  # original untouched

    def test_deeper_path(self, gm):
        out = apply_overrides(
            gm, {"machine.nic.host_dma_bandwidth_Bps": 50e6}
        )
        assert out.machine.nic.host_dma_bandwidth_Bps == 50e6

    def test_unknown_field_rejected(self, gm):
        with pytest.raises(ScenarioError, match="no field"):
            apply_overrides(gm, {"machine.nic.warp_速度": 1})

    def test_type_mismatch_rejected(self, gm):
        with pytest.raises(ScenarioError, match="expected"):
            apply_overrides(gm, {"machine.nic.mtu_bytes": "huge"})

    def test_int_for_float_allowed(self, gm):
        out = apply_overrides(gm, {"machine.cpu.timeslice_s": 1})
        assert out.machine.cpu.timeslice_s == 1


class TestRunScenario:
    SPEC = {
        "name": "unit",
        "systems": [
            {"preset": "GM"},
            {"preset": "Portals", "label": "P/w8",
             "overrides": {"portals.tx_window_pkts": 8}},
        ],
        "experiments": [
            {"kind": "polling", "msg_kb": 50, "intervals": [2000],
             "config": {"measure_s": 0.015, "warmup_s": 0.003}},
            {"kind": "offload", "msg_kb": 100},
            {"kind": "pingpong", "sizes_kb": [10]},
        ],
    }

    def test_runs_and_structures_results(self):
        results = run_scenario(self.SPEC)
        assert results["name"] == "unit"
        assert [e["label"] for e in results["systems"]] == ["GM", "P/w8"]
        gm_entry = results["systems"][0]
        kinds = [e["kind"] for e in gm_entry["experiments"]]
        assert kinds == ["polling", "offload", "pingpong"]
        assert gm_entry["experiments"][1]["offloaded"] is False
        assert results["systems"][1]["experiments"][1]["offloaded"] is True

    def test_results_json_serializable(self):
        blob = json.dumps(run_scenario(self.SPEC))
        assert "polling" in blob

    def test_format_renders_everything(self):
        text = format_scenario_results(run_scenario(self.SPEC))
        assert "GM" in text and "P/w8" in text
        assert "offload" in text and "pingpong" in text

    def test_file_input(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        results = run_scenario(path)
        assert results["name"] == "unit"

    def test_missing_sections_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario({"systems": []})

    def test_unknown_kind_rejected(self):
        spec = dict(self.SPEC)
        spec["experiments"] = [{"kind": "quantum"}]
        with pytest.raises(ScenarioError, match="unknown experiment kind"):
            run_scenario(spec)

    def test_netperf_kind(self):
        spec = {
            "name": "n",
            "systems": [{"preset": "GM"}],
            "experiments": [{"kind": "netperf", "mode": "busywait"}],
        }
        results = run_scenario(spec)
        exp = results["systems"][0]["experiments"][0]
        assert exp["availability"] == pytest.approx(0.5, abs=0.05)

    def test_cpus_per_node_override_reports_every_cpu(self):
        results = run_scenario({
            "systems": [{"preset": "Portals",
                         "overrides": {"cpus_per_node": 2}}],
            "experiments": [{"kind": "polling", "msg_kb": 50,
                             "intervals": [2000],
                             "config": {"measure_s": 0.015,
                                        "warmup_s": 0.003}}],
        })
        (point,) = results["systems"][0]["experiments"][0]["points"]
        assert len(point["availability_per_cpu"]) == 2
        assert point["availability_per_cpu"][0] == point["availability"]

    def test_cli_scenario(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps({
            "name": "cli",
            "systems": [{"preset": "GM"}],
            "experiments": [
                {"kind": "polling", "msg_kb": 50, "intervals": [2000],
                 "config": {"measure_s": 0.015, "warmup_s": 0.003}},
            ],
        }))
        out_path = tmp_path / "out.json"
        rc = main(["scenario", str(spec_path), "--out", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        assert "cli" in capsys.readouterr().out


class TestCliScenarioErrors:
    @pytest.mark.parametrize("content", [
        None,  # no such file
        "{not json",
        json.dumps({"systems": [{"preset": "Bogus"}],
                    "experiments": []}),
        json.dumps({"systems": [{"preset": "GM"}],
                    "experiments": [{"kind": "polling",
                                     "config": {"bogus": 1}}]}),
        json.dumps({"systems": [{"label": "GM"}], "experiments": []}),
        json.dumps({"replication": {"ci_width": "abc"},
                    "systems": [{"preset": "GM"}], "experiments": []}),
        json.dumps({"systems": [{"preset": "GM"}],
                    "experiments": [{"kind": "polling", "msg_kb": "big"}]}),
        json.dumps({"systems": [{"preset": "GM"}],
                    "experiments": [{"kind": "polling",
                                     "config": {"peers": 8}}]}),
        json.dumps({"systems": [{"preset": "GM"}],
                    "experiments": [{"kind": "pattern",
                                     "rank_counts": [1]}]}),
        json.dumps({"systems": [{"preset": "GM",
                                 "overrides": {"cpus_per_node": 0}}],
                    "experiments": [{"kind": "polling"}]}),
        json.dumps({"systems": [{"preset": "GM",
                                 "overrides": {"cpus_per_node": 0}}],
                    "experiments": [{"kind": "pingpong"}]}),
    ], ids=["missing-file", "bad-json", "unknown-preset", "unknown-config-key",
            "system-without-preset", "non-numeric-ci-width",
            "non-numeric-msg-kb", "too-many-peers", "one-rank-pattern",
            "zero-cpus", "zero-cpus-pingpong"])
    def test_bad_spec_is_one_error_line(self, content, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        rc = main(["scenario", str(spec), "--no-ledger"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_single_shot_ledger_gets_point_records(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import ledger_path, read_records

        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "name": "t",
            "systems": [{"preset": "GM"}],
            "experiments": [{"kind": "polling", "msg_kb": 10,
                             "intervals": [1000, 2000],
                             "config": {"measure_s": 0.002,
                                        "warmup_s": 0.0005,
                                        "min_cycles": 2}}],
        }))
        assert main(["scenario", str(spec), "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        points = [r for r in records if r["rec"] == "point"]
        assert [p["kind"] for p in points] == ["polling", "polling"]
        (run,) = [r for r in records if r["rec"] == "run"]
        assert run["reps"] == 1
        assert run["cache"]["misses"] == 2

    def test_baseline_points_reach_the_ledger(self, tmp_path):
        """Ping-pong and netperf points run through the scenario's
        executor, so the ledger records each one and counts its miss."""
        from repro.obs.ledger import RunLedger, ledger_path, read_records

        spec = {
            "name": "baselines",
            "systems": [{"preset": "GM"}],
            "experiments": [
                {"kind": "pingpong", "sizes_kb": [0, 10]},
                {"kind": "netperf", "mode": "busywait"},
            ],
        }
        ledger = RunLedger(tmp_path, "run1", "scenario")
        run_scenario(spec, ledger=ledger)
        ledger.close()
        records, _ = read_records(ledger_path(tmp_path))
        points = [r for r in records if r["rec"] == "point"]
        assert [p["kind"] for p in points] == ["pingpong", "pingpong",
                                               "netperf"]
        assert all(p["outcome"] == "miss" for p in points)
        (run,) = [r for r in records if r["rec"] == "run"]
        assert run["points"] == 3
        assert run["cache"]["misses"] == 3

    def test_offload_points_run_on_the_scenario_executor(self, tmp_path,
                                                         capsys):
        """The offload verdict's two PWW points go through the scenario's
        executor like every other point, so the ledger records them."""
        from repro.cli import main
        from repro.obs.ledger import ledger_path, read_records

        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "name": "t",
            "systems": [{"preset": "GM"}],
            "experiments": [{"kind": "offload", "msg_kb": 10},
                            {"kind": "pww", "msg_kb": 10,
                             "intervals": [10_000]}],
        }))
        assert main(["scenario", str(spec), "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        points = [r for r in records if r["rec"] == "point"]
        assert [p["kind"] for p in points] == ["pww"] * 3
        # The pww experiment's point is the offload's short point again.
        assert [p["outcome"] for p in points] == ["miss", "miss", "hit"]
