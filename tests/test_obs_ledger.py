"""Tests: the persistent run ledger and its CLI surfaces.

Covers the append-only JSONL contract (torn lines tolerated and
counted, concurrent-append-safe single-write lines), the ``comb
history`` filters/aggregates (byte-identical on repeat, mixed cores
named), and the one-line-error convention for unwritable ledger/stream
targets.
"""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    filter_records,
    format_history,
    history_aggregate,
    ledger_path,
    read_records,
)

RUN_META = dict(
    wall_s=2.5, timestamp="2026-08-08T00:00:00+00:00", compiled=False,
    reps=1, cache={"hits": 1, "misses": 2, "hit_rate": 0.33},
)


def _seed_ledger(ledger_dir, run_id="r1", figures=None):
    ledger = RunLedger(ledger_dir, run_id, "figures")
    ledger.record_point("k1", "polling", "GM", "miss", 0.5, 42,
                        figure="fig04")
    ledger.record_point("k2", "polling", "GM", "miss", 0.3, 42,
                        figure="fig04")
    ledger.record_point("k3", "pww", "Portals", "hit", None, 7,
                        figure="fig08")
    ledger.record_run(figures=figures or {"fig04": 1.5, "fig08": 0.9},
                      claims_ok=True, **RUN_META)
    ledger.close()
    return ledger_path(ledger_dir)


# ------------------------------------------------------------------- writing
class TestRunLedger:
    def test_append_and_read_back(self, tmp_path):
        path = _seed_ledger(tmp_path / "ledger")
        records, corrupt = read_records(path)
        assert corrupt == 0
        assert [r["rec"] for r in records] == ["point"] * 3 + ["run"]
        assert all(r["v"] == LEDGER_SCHEMA_VERSION for r in records)
        assert all(r["run_id"] == "r1" for r in records)
        run = records[-1]
        assert run["points"] == 3 and run["cmd"] == "figures"
        assert run["figures"] == {"fig04": 1.5, "fig08": 0.9}
        point = records[0]
        assert (point["key"], point["outcome"], point["seed"]) == \
            ("k1", "miss", 42)

    def test_each_line_is_one_json_object(self, tmp_path):
        path = _seed_ledger(tmp_path / "ledger")
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_runs_append_not_truncate(self, tmp_path):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        _seed_ledger(tmp_path / "ledger", run_id="r2")
        records, _corrupt = read_records(ledger_path(tmp_path / "ledger"))
        assert len(records) == 8
        assert {r["run_id"] for r in records} == {"r1", "r2"}

    def test_torn_lines_tolerated_and_counted(self, tmp_path):
        path = _seed_ledger(tmp_path / "ledger")
        with path.open("a") as fh:
            fh.write('{"v": 1, "rec": "run", "run_id": "torn", "wa')
        records, corrupt = read_records(path)
        assert corrupt == 1 and len(records) == 4

    def test_foreign_records_counted_as_corrupt(self, tmp_path):
        path = _seed_ledger(tmp_path / "ledger")
        with path.open("a") as fh:
            fh.write('{"rec": "alien"}\n[1, 2]\n')
        records, corrupt = read_records(path)
        assert corrupt == 2 and len(records) == 4

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(tmp_path / "nope.jsonl") == ([], 0)


# ------------------------------------------------------------------ filters
class TestFilters:
    @pytest.fixture()
    def records(self, tmp_path):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        _seed_ledger(tmp_path / "ledger", run_id="r2")
        recs, _ = read_records(ledger_path(tmp_path / "ledger"))
        return recs

    def test_by_rec(self, records):
        assert len(filter_records(records, rec="run")) == 2
        assert len(filter_records(records, rec="point")) == 6

    def test_by_figure_matches_points_and_runs(self, records):
        out = filter_records(records, figure="fig08")
        # One fig08 point per run, plus both run records (fig08 present).
        assert [r["rec"] for r in out] == ["point", "run"] * 2

    def test_by_system_and_kind_keep_run_records(self, records):
        out = filter_records(records, system="Portals")
        assert all(r["rec"] == "run" or r["system"] == "Portals"
                   for r in out)
        out = filter_records(records, kind="pww")
        assert sum(1 for r in out if r["rec"] == "point") == 2

    def test_last_keeps_newest_runs(self, records):
        out = filter_records(records, last=1)
        assert {r["run_id"] for r in out} == {"r2"}

    def test_last_zero_keeps_no_runs(self, records):
        assert filter_records(records, last=0) == []


# --------------------------------------------------------------- aggregates
class TestAggregates:
    def test_aggregate_shape(self, tmp_path):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        agg = history_aggregate(records)
        assert agg["runs"] == 1 and agg["points"] == 3
        assert agg["outcomes"] == {"hit": 1, "miss": 2}
        assert agg["points_by_kind"] == {"polling": 2, "pww": 1}
        assert agg["mean_miss_wall_s"] == pytest.approx(0.4)
        assert agg["run_wall_s"] == [2.5]
        assert agg["figure_wall_trend_s"] == {"fig04": [1.5],
                                              "fig08": [0.9]}

    def test_aggregate_is_deterministic(self, tmp_path):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        _seed_ledger(tmp_path / "ledger", run_id="r2")
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        once = json.dumps(history_aggregate(records), sort_keys=True)
        again = json.dumps(history_aggregate(records), sort_keys=True)
        assert once == again

    def test_format_history_mentions_everything(self, tmp_path):
        _seed_ledger(tmp_path / "ledger")
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        text = format_history(history_aggregate(records), corrupt=2)
        assert "1 runs, 3 point records" in text
        assert "miss=2" in text and "polling=2" in text
        assert "fig04 wall trend" in text
        assert "2 corrupt lines skipped" in text

    def test_run_record_samples_shape(self, tmp_path):
        path = _seed_ledger(tmp_path / "ledger")
        records, _corrupt = read_records(path)
        samples = [r for r in records if r.get("rec") == "run"]
        assert len(samples) == 1
        # Schema v1 is additive-only: run records keep total_s + figures.
        assert samples[0]["total_s"] == samples[0]["wall_s"] == 2.5
        assert samples[0]["figures"]["fig04"] == 1.5

    def test_mixed_cores_are_counted_and_named(self, tmp_path):
        ledger_dir = tmp_path / "ledger"
        for run_id, wall_s, compiled in (("r1", 1.0, False),
                                         ("r2", 2.0, True)):
            ledger = RunLedger(ledger_dir, run_id, "figures")
            ledger.record_run(**{**RUN_META, "wall_s": wall_s,
                                 "compiled": compiled})
            ledger.close()
        records, _ = read_records(ledger_path(ledger_dir))
        agg = history_aggregate(records)
        assert (agg["runs"], agg["compiled_runs"]) == (2, 1)
        text = format_history(agg)
        assert "mixed cores: 1 of 2 runs compiled, 1 pure" in text
        one_core = history_aggregate(records[:1])
        assert one_core["compiled_runs"] == 0
        assert "mixed cores" not in format_history(one_core)


# ------------------------------------------------------------------ CLI: runs
def _figures_argv(tmp_path, *extra):
    return ["figures", "--ids", "fig04", "--per-decade", "1", "--no-cache",
            "--no-plots", "--ledger-dir", str(tmp_path / "ledger"),
            *extra]


class TestCliLedgerWiring:
    def test_figures_appends_point_and_run_records(self, tmp_path, capsys):
        assert main(_figures_argv(tmp_path)) == 0
        capsys.readouterr()
        records, corrupt = read_records(ledger_path(tmp_path / "ledger"))
        assert corrupt == 0
        runs = [r for r in records if r["rec"] == "run"]
        points = [r for r in records if r["rec"] == "point"]
        assert len(runs) == 1
        assert runs[0]["cmd"] == "figures" and runs[0]["claims_ok"] is True
        assert runs[0]["points"] == len(points) > 0
        assert all(p["outcome"] == "miss" for p in points)
        assert "fig04" in runs[0]["figures"]

    def test_no_ledger_opts_out(self, tmp_path, capsys):
        assert main(_figures_argv(tmp_path, "--no-ledger")) == 0
        capsys.readouterr()
        assert not ledger_path(tmp_path / "ledger").exists()

    def test_ledger_runs_are_bit_identical_to_bare(self, tmp_path, capsys):
        assert main(_figures_argv(tmp_path)) == 0
        with_ledger = capsys.readouterr().out
        assert main(["figures", "--ids", "fig04", "--per-decade", "1",
                     "--no-cache", "--no-plots", "--no-ledger"]) == 0
        bare = capsys.readouterr().out
        assert with_ledger == bare

    def test_history_aggregates_are_stable_across_invocations(
            self, tmp_path, capsys):
        assert main(_figures_argv(tmp_path)) == 0
        capsys.readouterr()
        argv = ["history", "--ledger-dir", str(tmp_path / "ledger"),
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["runs"] == 1 and doc["corrupt_lines"] == 0

    def test_history_filters(self, tmp_path, capsys):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        assert main(["history", "--ledger-dir", str(tmp_path / "ledger"),
                     "--kind", "pww", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["points_by_kind"] == {"pww": 1}

    @pytest.mark.parametrize("last", ["0", "-1"])
    def test_history_last_below_one_is_argument_error(
            self, tmp_path, capsys, last):
        _seed_ledger(tmp_path / "ledger", run_id="r1")
        with pytest.raises(SystemExit) as exc:
            main(["history", "--ledger-dir", str(tmp_path / "ledger"),
                  "--last", last])
        assert exc.value.code == 2
        assert "--last" in capsys.readouterr().err

    def test_history_without_ledger_is_friendly(self, tmp_path, capsys):
        assert main(["history", "--ledger-dir",
                     str(tmp_path / "absent")]) == 0
        assert "no ledger" in capsys.readouterr().out

    def test_scenario_appends_run_record(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "name": "t",
            "systems": [{"preset": "GM"}],
            "experiments": [{"kind": "polling", "msg_kb": 10,
                             "intervals": [1000],
                             "config": {"measure_s": 0.002,
                                        "warmup_s": 0.0005,
                                        "min_cycles": 2}}],
        }))
        assert main(["scenario", str(spec), "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        records, _ = read_records(ledger_path(tmp_path / "ledger"))
        runs = [r for r in records if r["rec"] == "run"]
        assert len(runs) == 1 and runs[0]["cmd"] == "scenario"


# -------------------------------------------------------- CLI: stream + top
class TestCliStreamAndTop:
    def test_stream_lines_validate_and_top_attaches(self, tmp_path, capsys):
        from repro.obs.live import validate_stream_line

        stream = tmp_path / "stream.ndjson"
        assert main(_figures_argv(
            tmp_path, "--progress-stream", str(stream))) == 0
        capsys.readouterr()
        lines = stream.read_text().splitlines()
        assert lines, "stream file is empty"
        for line in lines:
            assert validate_stream_line(line) == []
        kinds = [json.loads(line)["kind"] for line in lines]
        assert "run_start" in kinds and "run_end" in kinds
        assert kinds.count("point_start") == kinds.count("point_end") > 0
        assert main(["top", str(stream), "--once"]) == 0
        screen = capsys.readouterr().out
        assert "comb top" in screen and "[finished]" in screen

    def test_top_missing_stream_is_one_line_error(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "absent.ndjson"),
                     "--once"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


# ----------------------------------------------- CLI: one-line I/O errors
class TestUnwritableTargets:
    def test_unwritable_ledger_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the ledger dir should be")
        code = main(["figures", "--ids", "fig04", "--per-decade", "1",
                     "--no-cache", "--no-plots",
                     "--ledger-dir", str(blocker / "ledger")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot open run ledger")
        assert "Traceback" not in captured.err

    def test_unwritable_stream_target(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the stream dir should be")
        code = main(_figures_argv(
            tmp_path, "--progress-stream", str(blocker / "s.ndjson")))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot open progress stream")
        assert "Traceback" not in captured.err
