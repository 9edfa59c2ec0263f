"""Tests: SMP nodes and the what-if presets (beyond the paper)."""

import json
from pathlib import Path

import pytest

from repro.config import (
    coalesced_portals,
    emp_system,
    get_system,
    offload_nic_system,
    portals_system,
    preset_names,
)
from repro.core import (
    PointTask,
    PollingConfig,
    PwwConfig,
    SweepExecutor,
    run_polling,
    run_pww,
    task_key,
)
from repro.core.executor import _SALT_SOURCES
from repro.mpi import build_world
from repro.transport.offload import OffloadNicDevice

KB = 1024

FAST = dict(measure_s=0.015, warmup_s=0.003, min_cycles=3)

#: The configuration of every SMP point below.
SMP_CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST)

#: Points of the former separate SMP driver (``worker_availability``,
#: ``per_cpu_availability``, ``bandwidth_Bps``, ...) for GM and Portals
#: at 2 and 4 CPUs per node under ``SMP_CFG``.
SMP_RECORDED = json.loads(
    (Path(__file__).parent / "data" / "smp_parity.json").read_text())


def _smp(system, n_cpus):
    return run_polling(system.replaced(cpus_per_node=n_cpus), SMP_CFG)


class TestSmp:
    @pytest.mark.parametrize("key", sorted(SMP_RECORDED))
    def test_matches_recorded_smp_driver(self, key):
        want = SMP_RECORDED[key]
        preset, n_cpus = key.split(".")
        got = _smp(get_system(preset), int(n_cpus))
        assert got.availability == want["worker_availability"]
        assert got.bandwidth_Bps == want["bandwidth_Bps"]
        assert got.availability_per_cpu == want["per_cpu_availability"]

    def test_requires_a_cpu(self, gm):
        with pytest.raises(ValueError, match="cpus_per_node"):
            _smp(gm, 0)

    def test_interrupts_hit_only_cpu0(self, portals):
        point = _smp(portals, 2)
        assert len(point.availability_per_cpu) == 2
        cpu0, cpu1 = point.availability_per_cpu
        assert cpu0 < 0.6          # shares with worker + interrupts
        assert cpu1 > 0.97         # untouched by communication

    def test_four_way_node(self, portals):
        point = _smp(portals, 4)
        assert len(point.availability_per_cpu) == 4
        assert all(a > 0.97 for a in point.availability_per_cpu[1:])

    def test_naive_figure_is_cpu0(self, portals):
        point = _smp(portals, 2)
        assert point.availability == point.availability_per_cpu[0]

    def test_one_cpu_point_has_no_per_cpu_key(self, portals):
        point = run_polling(portals, SMP_CFG)
        assert point.availability_per_cpu == []
        assert "availability_per_cpu" not in point.to_dict()


class TestCoalescing:
    def test_improves_cpu_efficiency(self):
        """The Portals pipeline is CPU-bound, so the cycles coalescing
        saves surface as *throughput* at comparable availability: bytes
        moved per CPU-second consumed goes up."""
        stock = run_polling(portals_system(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))
        better = run_polling(coalesced_portals(), PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, measure_s=0.05,
        ))

        def efficiency(pt):
            return pt.bandwidth_Bps / max(1e-9, 1.0 - pt.availability)

        assert efficiency(better) > efficiency(stock) * 1.03

    def test_counts_coalesced_interrupts(self):
        world = build_world(coalesced_portals())
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
        assert world.cluster[0].irq.coalesced > 0


class TestOffloadNic:
    def test_best_of_both_worlds(self):
        """Offload + no interrupts: GM-class availability with Portals-class
        progress semantics — the design direction the paper motivates."""
        system = offload_nic_system()
        poll = run_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000, **FAST,
        ))
        assert poll.availability > 0.85
        assert poll.bandwidth_MBps > 70
        assert poll.interrupts == 0

        pww = run_pww(system, PwwConfig(
            msg_bytes=100 * KB, work_interval_iters=5_000_000,
            batches=4, warmup_batches=1,
        ))
        assert pww.wait_s < 1e-4          # offloaded
        assert abs(pww.overhead_s) < 5e-5  # and interrupt-free

    def test_custom_world_builder(self):
        world = build_world(portals_system(
            device="repro.transport.offload:OffloadNicDevice"))
        assert world.size == 2
        assert isinstance(world.endpoint(0).device, OffloadNicDevice)

    def test_malformed_device_path_rejected(self):
        with pytest.raises(ValueError, match="module:Class"):
            build_world(portals_system(device="repro.transport.offload"))


# --------------------------------------------------- the device is config
#: Polling points on the custom-device presets (100 KB, two intervals).
DEVICE_TASKS = [
    PointTask("polling", system, PollingConfig(
        msg_bytes=100 * KB, poll_interval_iters=interval, **FAST))
    for system in (offload_nic_system(), emp_system())
    for interval in (1_000, 100_000)
]


@pytest.fixture(scope="module")
def pooled_cache(tmp_path_factory):
    """Serial points, and the points a two-worker pool stored in a fresh
    cache.  The workers never call a preset: the device arrives with the
    pickled config."""
    cache_dir = tmp_path_factory.mktemp("device-cache")
    with SweepExecutor(jobs=1) as serial:
        serial_points = serial.run(DEVICE_TASKS)
    with SweepExecutor(jobs=2, cache=cache_dir) as pooled:
        pooled_points = pooled.run(DEVICE_TASKS)
    return serial_points, pooled_points, cache_dir


class TestDeviceInConfig:
    def test_pool_workers_build_the_configured_device(self, pooled_cache):
        serial_points, pooled_points, _ = pooled_cache
        assert pooled_points == serial_points
        assert all(pt.interrupts == 0 for pt in pooled_points)

    def test_pool_filled_cache_reads_back_serial_values(self, pooled_cache):
        serial_points, _, cache_dir = pooled_cache
        with SweepExecutor(jobs=1, cache=cache_dir) as reader:
            assert reader.run(DEVICE_TASKS) == serial_points
            assert reader.stats.hits == len(DEVICE_TASKS)

    def test_device_is_part_of_the_cache_key(self):
        cfg = PollingConfig()
        stock = portals_system()
        offload = portals_system(
            device="repro.transport.offload:OffloadNicDevice")
        assert (task_key(PointTask("polling", stock, cfg))
                != task_key(PointTask("polling", offload, cfg)))

    @pytest.mark.parametrize("preset", preset_names())
    def test_device_source_is_salted(self, preset):
        """Every preset's device lives in a module the cache salt hashes,
        so editing a device invalidates its cached points."""
        for endpoint in build_world(get_system(preset)).endpoints:
            module = type(endpoint.device).__module__.split(".")
            assert module[0] == "repro" and module[1] in _SALT_SOURCES, module
