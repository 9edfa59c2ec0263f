"""Tests: the cross-system comparison table and kernel profiling."""

import pytest

from repro.analysis.tables import (
    HEADERS,
    format_table,
    summarize_system,
    system_comparison,
)
from repro.config import gm_system, portals_system
from repro.ext import offload_nic_system
from repro.mpi import build_world

KB = 1024


class TestSystemSummary:
    def test_gm_row_shape(self, gm):
        row = summarize_system(gm)
        assert row.system == "GM"
        assert not row.offloaded
        assert row.overhead_s == pytest.approx(0.0, abs=1e-7)
        assert row.wait_long_s > 1e-3
        assert 80e6 < row.peak_bandwidth_Bps < 95e6

    def test_portals_row_shape(self, portals):
        row = summarize_system(portals)
        assert row.offloaded
        assert row.overhead_s > 1e-3
        assert row.wait_long_s < 2e-4
        assert row.post_per_msg_s > 5 * 4e-6  # kernel traps

    def test_offload_nic_dominates(self):
        rows = system_comparison([gm_system(), offload_nic_system()])
        gm_row, nic_row = rows
        assert nic_row.offloaded and not gm_row.offloaded
        assert nic_row.latency0_s < gm_row.latency0_s
        assert nic_row.peak_bandwidth_Bps >= 0.95 * gm_row.peak_bandwidth_Bps

    def test_format_table(self, gm):
        text = format_table([summarize_system(gm)])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        for header in HEADERS:
            assert header in lines[0]
        assert "GM" in lines[2]


class TestKernelProfile:
    def test_labels_accumulate(self, portals):
        world = build_world(portals)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.recv(1, 100 * KB, tag=1)

        def rank1():
            yield from h1.send(0, 100 * KB, tag=1)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        profile = world.cluster[0].cpu.kernel_profile
        assert "portals_rx" in profile and "irecv_trap" in profile
        count, total = profile["portals_rx"]
        assert count == 25  # 100 KB / 4 KB MTU
        assert total == pytest.approx(
            world.cluster[0].cpu.kernel_time_s
            - sum(t for lbl, (_c, t) in profile.items()
                  if lbl != "portals_rx"),
        )

    def test_profile_sums_to_kernel_time(self, portals):
        world = build_world(portals)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.sendrecv(1, 50 * KB, 1, 50 * KB)

        def rank1():
            yield from h1.sendrecv(0, 50 * KB, 0, 50 * KB)

        p0 = engine.spawn(rank0())
        p1 = engine.spawn(rank1())
        engine.run(engine.all_of([p0, p1]))
        cpu = world.cluster[0].cpu
        total = sum(t for _c, t in cpu.kernel_profile.values())
        assert total == pytest.approx(cpu.kernel_time_s)

    def test_report_renders(self, portals):
        world = build_world(portals)
        engine = world.engine
        h0 = world.endpoint(0).bind(world.cluster[0].new_context("a"))
        h1 = world.endpoint(1).bind(world.cluster[1].new_context("b"))

        def rank0():
            yield from h0.recv(1, 10 * KB, tag=1)

        def rank1():
            yield from h1.send(0, 10 * KB, tag=1)

        p0 = engine.spawn(rank0())
        engine.spawn(rank1())
        engine.run(p0)
        report = world.cluster[0].cpu.profile_report()
        assert "portals_rx" in report and "kernel" in report


class TestCompareCli:
    def test_compare_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["compare", "--systems", "GM", "Portals", "--size", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GM" in out and "Portals" in out
        assert "offload" in out

    def test_unknown_system_is_argument_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["compare", "--systems", "BOGUS"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "BOGUS" in err and "Traceback" not in err

    def test_run_paths_are_argument_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["compare", "a.jsonl", "b.jsonl"])
        assert exc.value.code == 2
        assert "a.jsonl" in capsys.readouterr().err
