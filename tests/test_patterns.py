"""Application communication patterns: config, runner, wiring."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import get_system
from repro.core import (
    PointCache,
    PointTask,
    PollingConfig,
    SweepExecutor,
    run_polling,
)
from repro.core.executor import task_key
from repro.mpi.collectives import allreduce_msgs, allreduce_rd_msgs
from repro.patterns import (
    PatternConfig,
    PatternPoint,
    balanced_grid,
    grid_neighbors,
    halo_pairs,
    run_pattern,
)
from repro.patterns.allreduce import expected_allreduce_msgs
from repro.patterns.config import validate_config
from repro.patterns.halo import HaloPlan
from repro.patterns.sweep import SweepPlan

KB = 1024

#: Small-but-real measurement shape shared by the runner tests.
FAST = dict(msg_bytes=20 * KB, work_interval_iters=20_000,
            iterations=3, warmup_iterations=1)


class TestConfig:
    def test_defaults_validate(self):
        validate_config(PatternConfig())

    @pytest.mark.parametrize("bad", [
        dict(pattern="ring"),
        dict(ranks=1),
        dict(msg_bytes=0),
        dict(work_interval_iters=-1),
        dict(iterations=0),
        dict(warmup_iterations=-1),
        dict(ghost_width=0),
        dict(algorithm="ring"),
        dict(ranks=4, grid=(3, 2)),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_config(PatternConfig(**bad))

    def test_balanced_grid_products(self):
        assert balanced_grid(4, 2) == (2, 2)
        assert balanced_grid(6, 2) == (3, 2)
        assert balanced_grid(8, 3) == (2, 2, 2)
        assert balanced_grid(12, 3) == (3, 2, 2)
        assert balanced_grid(7, 2) == (7, 1)

    def test_halo_pairs_counts(self):
        assert halo_pairs((2, 2)) == 4
        assert halo_pairs((3, 1)) == 2
        assert halo_pairs((2, 2, 2)) == 12

    def test_grid_neighbors_interior(self):
        # 3x3: center rank 4 touches all four sides.
        assert grid_neighbors(4, (3, 3)) == [1, 3, 5, 7]
        # Corner rank 0 touches two.
        assert grid_neighbors(0, (3, 3)) == [1, 3]


class TestPlans:
    def test_halo_ghost_width_scales_payload(self):
        one = HaloPlan(PatternConfig(ranks=4, ghost_width=1), 0)
        three = HaloPlan(PatternConfig(ranks=4, ghost_width=3), 0)
        assert three.nbytes == 3 * one.nbytes

    def test_halo3d_uses_three_dims(self):
        plan = HaloPlan(PatternConfig(pattern="halo3d", ranks=8), 0)
        assert plan.shape == (2, 2, 2)
        assert len(plan.neighbors) == 3  # corner of the cube

    def test_sweep_corner_ranks(self):
        cfg = PatternConfig(pattern="sweep", ranks=4)
        origin = SweepPlan(cfg, 0)
        assert origin.upstream == []
        assert sorted(origin.downstream) == [1, 2]
        sink = SweepPlan(cfg, 3)
        assert sorted(sink.upstream) == [1, 2]
        assert sink.downstream == []


class TestRunner:
    @pytest.mark.parametrize("pattern", ["halo2d", "halo3d", "sweep",
                                         "allreduce"])
    def test_runs_and_reports_per_rank(self, gm, pattern):
        ranks = 8 if pattern == "halo3d" else 4
        pt = run_pattern(gm, PatternConfig(pattern=pattern, ranks=ranks,
                                           **FAST))
        assert pt.ranks == ranks
        assert len(pt.availability_per_rank) == ranks
        assert len(pt.elapsed_per_rank) == ranks
        assert all(0.0 < a <= 1.0 for a in pt.availability_per_rank)
        assert pt.availability_min <= pt.availability <= pt.availability_max
        assert pt.elapsed_s == max(pt.elapsed_per_rank)

    def test_halo_message_oracle(self, gm):
        cfg = PatternConfig(pattern="halo2d", ranks=6, **FAST)
        pt = run_pattern(gm, cfg)
        shape = balanced_grid(6, 2)
        assert pt.msgs == cfg.iterations * 2 * halo_pairs(shape)

    @pytest.mark.parametrize("algorithm,analytic", [
        ("binomial", allreduce_msgs),
        ("rd", allreduce_rd_msgs),
    ])
    def test_allreduce_message_oracle(self, gm, algorithm, analytic):
        for ranks in (2, 3, 6):
            cfg = PatternConfig(pattern="allreduce", ranks=ranks,
                                algorithm=algorithm, **FAST)
            pt = run_pattern(gm, cfg)
            assert pt.msgs == cfg.iterations * analytic(ranks), ranks
            assert pt.algorithm == algorithm
            assert expected_allreduce_msgs(algorithm, ranks) == analytic(ranks)

    def test_deterministic(self, either_system):
        cfg = PatternConfig(pattern="halo2d", ranks=4, **FAST)
        assert run_pattern(either_system, cfg) == \
            run_pattern(either_system, cfg)

    def test_fattree_runs(self, gm):
        cfg = PatternConfig(pattern="halo2d", ranks=6, topology="fattree",
                            **FAST)
        pt = run_pattern(gm, cfg)
        assert pt.topology == "fattree"
        assert all(0.0 < a <= 1.0 for a in pt.availability_per_rank)

    def test_crossbar_widens_past_port_count(self, gm):
        # 16 ranks exceed the paper's 8-port switch; the runner models an
        # idealized wider single-stage fabric instead of refusing.
        cfg = PatternConfig(pattern="allreduce", ranks=16, **FAST)
        pt = run_pattern(gm, cfg)
        assert pt.ranks == 16

    def test_explicit_grid_honored(self, gm):
        cfg = PatternConfig(pattern="halo2d", ranks=6, grid=(6, 1), **FAST)
        pt = run_pattern(gm, cfg)
        assert pt.msgs == cfg.iterations * 2 * halo_pairs((6, 1))


class TestExecutorIntegration:
    def _task(self, gm):
        return PointTask("pattern", gm,
                         PatternConfig(pattern="halo2d", ranks=4, **FAST))

    def test_cache_roundtrip_bit_identical(self, gm, tmp_path):
        task = self._task(gm)
        with SweepExecutor(jobs=1, cache=tmp_path) as ex:
            fresh = ex.run_one(task)
        with SweepExecutor(jobs=1, cache=tmp_path) as ex2:
            cached = ex2.run_one(task)
            assert ex2.stats.hits == 1
        assert cached == fresh
        assert isinstance(cached, PatternPoint)

    def test_cache_key_distinguishes_topology_and_ranks(self, gm):
        base = PatternConfig(pattern="halo2d", ranks=4, **FAST)
        keys = {
            task_key(PointTask("pattern", gm, cfg))
            for cfg in (
                base,
                PatternConfig(pattern="halo2d", ranks=8, **FAST),
                PatternConfig(pattern="halo2d", ranks=4,
                              topology="fattree", **FAST),
            )
        }
        assert len(keys) == 3

    def test_checked_equals_bare(self, gm):
        task = self._task(gm)
        bare = SweepExecutor(jobs=1).run_one(task)
        with SweepExecutor(jobs=1, check=True) as ex:
            checked = ex.run_one(task)
            assert ex.violations == []
        assert checked == bare

    def test_cache_record_kind(self, gm, tmp_path):
        task = self._task(gm)
        cache = PointCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as ex:
            ex.run_one(task)
        rec = next(tmp_path.rglob("*.json"))
        assert json.loads(rec.read_text())["kind"] == "pattern"


class TestScenario:
    def test_pattern_experiment(self, tmp_path):
        from repro.scenario import format_scenario_results, run_scenario

        spec = {
            "name": "pattern-smoke",
            "systems": [{"preset": "GM"}],
            "experiments": [{
                "kind": "pattern", "pattern": "allreduce",
                "rank_counts": [2, 4], "msg_kb": 20,
                "config": {"work_interval_iters": 20_000,
                           "iterations": 2, "warmup_iterations": 1},
            }],
        }
        results = run_scenario(spec)
        points = results["systems"][0]["experiments"][0]["points"]
        assert [p["ranks"] for p in points] == [2, 4]
        text = format_scenario_results(results)
        assert "allreduce" in text and "avail=" in text

    def test_unknown_pattern_kind_rejected(self):
        from repro.scenario import ScenarioError, run_scenario

        spec = {"name": "x", "systems": [{"preset": "GM"}],
                "experiments": [{"kind": "pattern", "pattern": "ring",
                                 "rank_counts": [2]}]}
        with pytest.raises(ValueError):
            run_scenario(spec)


class TestCli:
    def test_pattern_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["pattern", "halo", "--ranks", "4", "--size", "20",
                   "--interval", "20000", "--iterations", "2",
                   "--warmup", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "halo2d, 4 ranks on crossbar" in out
        assert "per-rank availability" in out

    def test_pattern_subcommand_checked_fattree(self, capsys):
        from repro.cli import main

        rc = main(["pattern", "allreduce", "--ranks", "6",
                   "--topology", "fattree", "--algorithm", "rd",
                   "--size", "20", "--interval", "20000",
                   "--iterations", "2", "--warmup", "1", "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[rd]" in out
        assert "all invariants held" in out

    def test_trace_pattern_with_attribution(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace", "halo", "--ranks", "4", "--size", "20",
                   "--interval", "20000", "--out", str(tmp_path),
                   "--attribution"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pattern" in out  # the attribution table row
        doc = json.loads((tmp_path / "halo.attribution.json").read_text())
        assert doc["points"][0]["method"] == "pattern"
        assert doc["points"][0]["windows"] > 0


class TestScalingFigures:
    def test_run_figure_scale(self, monkeypatch):
        from repro.analysis import run_figure

        rep = run_figure("scale_halo", rank_counts=(2, 4),
                         msg_bytes=20 * KB, work_interval_iters=200_000)
        assert len(rep.figure.curves) == 4
        assert all(len(c.y) == 2 for c in rep.figure.curves)
        # Validity claims must hold even on the tiny grid.
        for c in rep.claims:
            if "valid fraction" in c.claim:
                assert c.ok, c.detail

    def test_unknown_figure_lists_scaling_ids(self):
        from repro.analysis import run_figure

        with pytest.raises(KeyError, match="scale_halo"):
            run_figure("fig99")


# Fan-in needs longer windows: more messages in flight means larger
# window-edge bias at short measures.
FANIN_CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                          measure_s=0.1, warmup_s=0.02)

#: The deleted fan-in driver's points (``FanInPoint.point.to_dict()``) for
#: GM and Portals x 1, 2, 4, 7 peers under ``FANIN_CFG``; it reported
#: ``polls=0`` for every point.
FANIN_RECORDED = json.loads(
    (Path(__file__).parent / "data" / "fanin_parity.json").read_text())


def _fanin(system, peers):
    return run_polling(system, dataclasses.replace(FANIN_CFG, peers=peers))


class TestFanInValidation:
    def test_zero_peers_rejected(self, gm):
        with pytest.raises(ValueError):
            _fanin(gm, 0)

    def test_too_many_peers_rejected(self, gm):
        with pytest.raises(ValueError):
            _fanin(gm, 8)  # 8 peers + worker > 8 ports


class TestFanIn:
    def test_single_peer_matches_two_node_comb(self, gm):
        """peers=1 is the ordinary polling method, bit for bit."""
        assert _fanin(gm, 1) == run_polling(gm, FANIN_CFG)

    @pytest.mark.parametrize("key", sorted(FANIN_RECORDED))
    def test_matches_recorded_fanin_driver(self, key):
        """Every field the old fan-in driver reported is reproduced; the
        poll count it left at 0 is now counted."""
        want = FANIN_RECORDED[key]
        preset, peers = key.split(".")
        got = _fanin(get_system(preset), int(peers)).to_dict()
        assert got["polls"] > 0
        assert {k: v for k, v in got.items() if k != "polls"} == \
            {k: v for k, v in want.items() if k != "polls"}

    def test_gm_stays_bus_bound(self, gm):
        """More peers cannot push GM past the worker's host bus, and the
        worker's availability barely moves (no interrupts)."""
        one = _fanin(gm, 1)
        seven = _fanin(gm, 7)
        bus = gm.machine.nic.host_dma_bandwidth_Bps
        assert seven.bandwidth_Bps <= bus * 1.05
        assert seven.availability == pytest.approx(one.availability, abs=0.05)

    def test_portals_worker_cpu_saturates(self, portals):
        """Fan-in drives the kernel share up: availability falls while
        aggregate bandwidth gains little."""
        one = _fanin(portals, 1)
        seven = _fanin(portals, 7)
        assert seven.availability < one.availability
        assert seven.bandwidth_Bps < 1.6 * one.bandwidth_Bps

    def test_per_peer_bandwidth_dilutes(self, portals):
        seven = _fanin(portals, 7)
        one = _fanin(portals, 1)
        assert seven.bandwidth_Bps / 7 < 0.5 * one.bandwidth_Bps
