"""Tests: the sweep execution layer (pool parity, point cache, memo).

The executor's contract is that *every* configuration — serial, pooled,
cached, memoized — produces bit-identical results.  These tests enforce
that contract, reusing the canonical configurations behind
``tests/golden_values.json`` so the cached path is pinned to the same
values the golden regression pins the direct path to.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import (
    NetperfConfig,
    NetperfResult,
    PingPongConfig,
    PingPongResult,
)
from repro.cli import main
from repro.config import gm_system, portals_system
from repro.core import (
    CombSuite,
    PointCache,
    PointTask,
    PollingConfig,
    PwwConfig,
    SweepExecutor,
    current_executor,
    polling_sweep,
    pww_sweep,
    run_task,
    task_key,
)
from repro.core.executor import _METHODS, _SALT_SOURCES, code_salt
from repro.obs import Observer, use_observer

KB = 1024
GOLDEN_PATH = Path(__file__).parent / "golden_values.json"

#: Coarse-but-real sweep settings shared by the parity tests.
POLL_BASE = PollingConfig(measure_s=0.005, warmup_s=0.002, min_cycles=2)
PWW_BASE = PwwConfig(batches=3, warmup_batches=1)
GRID = [1_000, 100_000, 10_000_000]


def _poll(executor=None):
    return polling_sweep(gm_system(), 50 * KB, GRID, base=POLL_BASE,
                         executor=executor)


def _pww(executor=None):
    return pww_sweep(portals_system(), 50 * KB, GRID, base=PWW_BASE,
                     executor=executor)


# ------------------------------------------------------------------ task keys
class TestTaskKey:
    def test_stable_across_calls(self):
        t = PointTask("polling", gm_system(), POLL_BASE)
        assert task_key(t) == task_key(t)

    def test_differs_on_method_config_field(self):
        a = PointTask("polling", gm_system(), POLL_BASE)
        b = PointTask("polling", gm_system(),
                      dataclasses.replace(POLL_BASE, queue_depth=2))
        assert task_key(a) != task_key(b)

    def test_differs_on_system_field(self):
        sys_a = gm_system()
        sys_b = gm_system(seed=1)
        cfg = POLL_BASE
        assert (task_key(PointTask("polling", sys_a, cfg))
                != task_key(PointTask("polling", sys_b, cfg)))

    def test_differs_on_nested_machine_field(self):
        sys_a = gm_system()
        machine = dataclasses.replace(
            sys_a.machine,
            cpu=dataclasses.replace(sys_a.machine.cpu, cycles_per_work_iter=3.0),
        )
        sys_b = sys_a.replaced(machine=machine)
        cfg = POLL_BASE
        assert (task_key(PointTask("polling", sys_a, cfg))
                != task_key(PointTask("polling", sys_b, cfg)))

    def test_differs_on_kind(self):
        cfg_p = PollingConfig(msg_bytes=50 * KB)
        cfg_w = PwwConfig(msg_bytes=50 * KB)
        assert (task_key(PointTask("polling", gm_system(), cfg_p))
                != task_key(PointTask("pww", gm_system(), cfg_w)))

    def test_differs_on_salt(self):
        t = PointTask("polling", gm_system(), POLL_BASE)
        assert task_key(t, salt="a") != task_key(t, salt="b")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PointTask("bogus", gm_system(), POLL_BASE)

    def test_code_salt_is_stable_in_process(self):
        assert code_salt() == code_salt()

    @pytest.mark.parametrize("kind", sorted(_METHODS))
    def test_method_code_is_under_the_salt(self, kind):
        """Every config, runner and result type of a method kind is
        defined in a module the code salt hashes, so an edit to any of
        them invalidates the kind's cached points."""
        root = Path(repro.__file__).resolve().parent
        for obj in _METHODS[kind]:
            module_file = Path(sys.modules[obj.__module__].__file__)
            top = module_file.resolve().relative_to(root).parts[0]
            assert top in _SALT_SOURCES, (kind, obj.__name__, obj.__module__)


# ----------------------------------------------------------------- pool parity
class TestPoolParity:
    def test_jobs1_vs_jobs4_polling_and_pww(self):
        """The ISSUE's headline guarantee: pool output == serial output."""
        serial_poll = _poll(SweepExecutor(jobs=1))
        serial_pww = _pww(SweepExecutor(jobs=1))
        with SweepExecutor(jobs=4) as pool_ex:
            pool_poll = _poll(pool_ex)
            pool_pww = _pww(pool_ex)
        assert serial_poll.points == pool_poll.points
        assert serial_pww.points == pool_pww.points

    def test_pool_preserves_task_order(self):
        with SweepExecutor(jobs=2) as ex:
            series = _poll(ex)
        assert series.xs("poll_interval_iters") == GRID

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


# ----------------------------------------------------------------- point cache
class TestPointCache:
    def test_cached_vs_uncached_identical(self, tmp_path):
        plain = _poll(None)
        ex1 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        first = _poll(ex1)
        assert ex1.stats.misses == len(GRID) and ex1.stats.hits == 0
        # Fresh executor, warm disk cache: no simulation at all.
        ex2 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        second = _poll(ex2)
        assert ex2.stats.hits == len(GRID) and ex2.stats.misses == 0
        assert plain.points == first.points == second.points

    def test_pooled_fill_warms_a_fresh_serial_run(self, tmp_path):
        """Points a pool stored are served to a later serial process."""
        with SweepExecutor(jobs=2, cache=PointCache(tmp_path)) as pool_ex:
            pooled = (_poll(pool_ex), _pww(pool_ex))
        serial_ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        warm = (_poll(serial_ex), _pww(serial_ex))
        assert serial_ex.stats.misses == 0
        assert serial_ex.stats.hits == 2 * len(GRID)
        assert [s.points for s in warm] == [s.points for s in pooled]

    def test_pww_round_trip_bit_exact(self, tmp_path):
        plain = _pww(None)
        _pww(SweepExecutor(jobs=1, cache=PointCache(tmp_path)))
        warm = _pww(SweepExecutor(jobs=1, cache=PointCache(tmp_path)))
        assert plain.points == warm.points

    def test_baseline_kinds_round_trip_bit_exact(self, tmp_path):
        tasks = [
            PointTask("pingpong", gm_system(),
                      PingPongConfig(10 * KB, repeats=3, warmup_msgs=1)),
            PointTask("netperf", portals_system(), NetperfConfig(
                msg_bytes=10 * KB, wait_mode="busywait",
                delay_iters=250_000)),
        ]
        cold = SweepExecutor(jobs=1, cache=PointCache(tmp_path)).run(tasks)
        warm_ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        warm = warm_ex.run(tasks)
        assert (warm_ex.stats.hits, warm_ex.stats.misses) == (2, 0)
        assert [type(p) for p in warm] == [PingPongResult, NetperfResult]
        assert warm == cold

    def test_config_change_invalidates(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex)
        assert ex.stats.misses == len(GRID)
        # Same grid, different queue depth: every point is a fresh miss.
        other = dataclasses.replace(POLL_BASE, queue_depth=2)
        polling_sweep(gm_system(), 50 * KB, GRID, base=other, executor=ex)
        assert ex.stats.misses == 2 * len(GRID)

    def test_system_change_invalidates(self, tmp_path):
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex)
        polling_sweep(gm_system(seed=7), 50 * KB, GRID, base=POLL_BASE,
                      executor=ex)
        assert ex.stats.misses == 2 * len(GRID)
        assert ex.stats.hits == 0

    def test_kind_cross_contamination_impossible(self, tmp_path):
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        series = _poll(ex)
        key = task_key(PointTask("polling", gm_system(),
                                 dataclasses.replace(
                                     POLL_BASE, msg_bytes=50 * KB,
                                     poll_interval_iters=GRID[0])))
        assert cache.get(key, "polling") == series.points[0]
        assert cache.get(key, "pww") is None

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        _poll(ex)
        for f in Path(tmp_path).rglob("*.json"):
            f.write_text("{not json")
        ex2 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        again = _poll(ex2)
        assert ex2.stats.misses == len(GRID)
        assert again.points == _poll(None).points

    @pytest.mark.parametrize("garbage", [
        "",                                  # zero-length (crashed writer)
        '{"kind": "polling", "point": {',    # truncated mid-record
        "[1, 2, 3]",                         # valid JSON, wrong shape
        '{"kind": "polling"}',               # record missing its point
        '{"kind": "polling", "point": {"bogus_field": 1}}',
        "\x00\x01\x02 binary trash",
    ])
    def test_garbage_record_evicted_then_recomputed(self, tmp_path, garbage):
        """A bad cache file costs one recompute, then heals itself."""
        cache = PointCache(tmp_path)
        _poll(SweepExecutor(jobs=1, cache=cache))
        files = sorted(Path(tmp_path).rglob("*.json"))
        assert len(files) == len(GRID)
        victim = files[0]
        victim.write_text(garbage)
        ex = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        again = _poll(ex)
        # Exactly the corrupted record misses; the rest still hit.
        assert ex.stats.misses == 1 and ex.stats.hits == len(GRID) - 1
        assert again.points == _poll(None).points
        # The garbage was evicted and the slot rewritten with a good record.
        rewritten = json.loads(victim.read_text())
        assert rewritten["kind"] == "polling"
        ex3 = SweepExecutor(jobs=1, cache=PointCache(tmp_path))
        _poll(ex3)
        assert ex3.stats.misses == 0

    def test_wrong_kind_record_not_evicted(self, tmp_path):
        """A kind mismatch is a miss but NOT corruption: the record is
        intact and must survive for its own kind's lookups."""
        cache = PointCache(tmp_path)
        ex = SweepExecutor(jobs=1, cache=cache)
        series = _poll(ex)
        key = task_key(PointTask("polling", gm_system(),
                                 dataclasses.replace(
                                     POLL_BASE, msg_bytes=50 * KB,
                                     poll_interval_iters=GRID[0])))
        assert cache.get(key, "pww") is None
        assert cache.get(key, "polling") == series.points[0]

    def test_len_and_clear(self, tmp_path):
        cache = PointCache(tmp_path)
        assert len(cache) == 0
        _poll(SweepExecutor(jobs=1, cache=cache))
        assert len(cache) == len(GRID)
        assert cache.clear() == len(GRID)
        assert len(cache) == 0


# --------------------------------------------------------------- golden values
class TestGoldenThroughExecutor:
    """The cached/executor path reproduces the golden regression values."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_polling_golden_via_cache_round_trip(self, tmp_path_factory, golden):
        tmp = tmp_path_factory.mktemp("cache")
        cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                            measure_s=0.02, warmup_s=0.004)
        for name, factory in (("GM", gm_system), ("Portals", portals_system)):
            task = PointTask("polling", factory(), cfg)
            SweepExecutor(jobs=1, cache=PointCache(tmp)).run_one(task)
            warm_ex = SweepExecutor(jobs=1, cache=PointCache(tmp))
            pt = warm_ex.run_one(task)
            assert warm_ex.stats.hits == 1, "expected a disk hit"
            want = golden[f"{name}.polling.100KB.1e3"]
            assert pt.availability == want["availability"]
            assert pt.bandwidth_Bps == want["bandwidth_Bps"]
            assert pt.msgs == want["msgs"]
            assert pt.interrupts == want["interrupts"]

    def test_pww_golden_via_cache_round_trip(self, tmp_path_factory, golden):
        tmp = tmp_path_factory.mktemp("cache")
        cfg = PwwConfig(msg_bytes=100 * KB, work_interval_iters=100_000,
                        batches=6, warmup_batches=2)
        for name, factory in (("GM", gm_system), ("Portals", portals_system)):
            task = PointTask("pww", factory(), cfg)
            SweepExecutor(jobs=1, cache=PointCache(tmp)).run_one(task)
            warm_ex = SweepExecutor(jobs=1, cache=PointCache(tmp))
            pt = warm_ex.run_one(task)
            assert warm_ex.stats.hits == 1, "expected a disk hit"
            want = golden[f"{name}.pww.100KB.1e5"]
            assert pt.availability == want["availability"]
            assert pt.bandwidth_Bps == want["bandwidth_Bps"]
            assert (pt.post_s, pt.work_s, pt.wait_s) == (
                want["post_s"], want["work_s"], want["wait_s"])


# ------------------------------------------------------------------------ memo
class TestMemo:
    def test_intra_run_dedup(self):
        ex = SweepExecutor(jobs=1)
        _poll(ex)
        assert ex.stats.misses == len(GRID)
        _poll(ex)
        assert ex.stats.hits == len(GRID)

    def test_duplicate_tasks_in_one_batch_simulated_once(self):
        cfg = dataclasses.replace(POLL_BASE, msg_bytes=50 * KB,
                                  poll_interval_iters=1_000)
        tasks = [PointTask("polling", gm_system(), cfg)] * 3
        ex = SweepExecutor(jobs=1)
        points = ex.run(tasks)
        assert ex.stats.misses == 1
        assert points[0] == points[1] == points[2]
        # Copies, not aliases: mutating one must not leak into the others.
        assert points[0] is not points[1]

    def test_hits_return_copies(self):
        ex = SweepExecutor(jobs=1)
        a = _poll(ex).points[0]
        b = _poll(ex).points[0]
        assert a == b and a is not b


# ----------------------------------------------------------------- resolution
class TestExecutorResolution:
    def test_default_is_a_fresh_serial_executor(self):
        first, second = current_executor(), current_executor()
        assert first is not second
        assert first.jobs == 1 and first.cache is None

    def test_repeated_suite_point_is_observed(self):
        """No memo outlives a call: the second of two identical suite
        points run without an executor is simulated again, so an
        observer attached for it sees the whole run."""
        suite = CombSuite(gm_system())
        kwargs = dict(msg_bytes=50 * 1024, poll_interval_iters=1_000,
                      measure_s=0.005, warmup_s=0.002, min_cycles=2)
        first = suite.polling(**kwargs)
        observer = Observer()
        with use_observer(observer):
            second = suite.polling(**kwargs)
        assert second == first
        assert any(ev.kind == "poll_window" for ev in observer.events())

    def test_explicit_wins(self):
        ex = SweepExecutor(jobs=1)
        assert current_executor(ex) is ex

    def test_run_task_direct(self):
        cfg = dataclasses.replace(POLL_BASE, poll_interval_iters=1_000)
        pt = run_task(PointTask("polling", gm_system(), cfg))
        assert pt.bandwidth_Bps > 0


# ------------------------------------------------------------------------- CLI
#: A device whose construction kills the process building it.
DYING_DEVICE = """
import os


class DyingDevice:
    def __init__(self, *args):
        os._exit(1)
"""

#: ``comb`` whose figures are two points on the dying device.
DEAD_WORKER_SWEEP = """
import sys

import repro.cli
from repro.config import gm_system
from repro.core import PointTask, PollingConfig


def run_all(executor, **_kwargs):
    system = gm_system(device="dying_device:DyingDevice")
    executor.run([PointTask("polling", system,
                            PollingConfig(poll_interval_iters=interval))
                  for interval in (1_000, 2_000)])
    raise AssertionError("a dead worker's point came back")


if __name__ == "__main__":
    repro.cli.run_all = run_all
    sys.exit(repro.cli.main(sys.argv[1:]))
"""


class TestCliFlags:
    @pytest.mark.parametrize("cmd", ["figures", "report"])
    def test_dead_pool_worker_fails_the_sweep(self, tmp_path, cmd):
        """A pool worker that dies mid-point ends the sweep with one
        error line and exit 1 (not a sweep that never returns), and the
        live stream still closes with ``run_end``."""
        (tmp_path / "dying_device.py").write_text(DYING_DEVICE)
        script = tmp_path / "sweep.py"
        script.write_text(DEAD_WORKER_SWEEP)
        stream = tmp_path / "stream.ndjson"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, str(script), cmd, "--jobs", "2", "--no-cache",
             "--progress-stream", str(stream),
             "--ledger-dir", str(tmp_path / "ledger")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "worker" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr
        last = json.loads(stream.read_text().splitlines()[-1])
        assert last["kind"] == "run_end"

    def test_figures_with_cache_and_jobs(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--jobs", "2",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert (tmp_path / "cache").is_dir(), "cache dir should be populated"
        # Second run hits the disk cache and must agree claim-for-claim.
        out_first = capsys.readouterr().out
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert capsys.readouterr().out == out_first

    def test_figures_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--no-cache"])
        assert rc == 0
        assert not (tmp_path / ".comb_cache").exists()

    def test_figures_check_flag_clean(self, capsys, tmp_path):
        rc = main(["figures", "--ids", "fig13", "--per-decade", "1",
                   "--no-plots", "--no-cache", "--check",
                   "--cache-dir", str(tmp_path / "unused")])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_polling_check_flag_clean(self, capsys):
        rc = main(["polling", "--system", "GM", "--size", "50",
                   "--interval", "1000", "--check"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out
