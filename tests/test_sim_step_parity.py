"""Parity: ``Engine.run()`` is ``Engine.step()`` inlined.

The run loop duplicates :meth:`~repro.sim.engine.Engine.step`'s body for
speed (the simulator's hottest code), which creates a drift hazard: an
edit to one that misses the other would silently fork the semantics.
This test drives a *complete* benchmark scenario — a full polling
measurement with transports, DMA, interrupts, and both fast paths live —
once through ``run()`` and once through a manual ``step()`` loop, and
requires byte-identical measurements and identical event accounting.
"""

from repro.config import gm_system, portals_system
from repro.core.polling import PollingConfig, _support, _WorkerState, _worker
from repro.mpi import build_world
from repro.patterns import PatternConfig
from repro.patterns.runner import _assemble, _rank_proc, build_pattern_world

import pytest

KB = 1024

CFG = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                    measure_s=0.01, warmup_s=0.002, min_cycles=2)


def _run_with(system, stepped: bool):
    world = build_world(system)
    state = _WorkerState()
    worker = world.engine.spawn(_worker(world, CFG, state), name="worker")
    world.engine.spawn(_support(world, CFG), name="support")
    if stepped:
        # run(until=worker) stops after *processing* the worker's
        # termination event; stepping to `triggered` would stop one
        # event short and skew the accounting comparison.
        while not worker.processed:
            world.engine.step()
    else:
        world.engine.run(worker)
    assert state.result is not None
    return state.result, world.engine.events_processed


@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_stepped_run_is_byte_identical(factory):
    via_run, n_run = _run_with(factory(), stepped=False)
    via_step, n_step = _run_with(factory(), stepped=True)
    assert via_step == via_run
    assert n_step == n_run


def _run_pattern_with(system, cfg, stepped: bool):
    """One multi-rank pattern point, via run() or a manual step() loop."""
    world = build_pattern_world(system, cfg)
    samples = {}
    procs = [
        world.engine.spawn(_rank_proc(world, cfg, rank, samples),
                           name=f"pattern.rank{rank}")
        for rank in range(cfg.ranks)
    ]
    # Both paths drive the same all_of gate: its completion is itself one
    # processed event, so stepping only until the last rank finishes
    # would come up one event short of run()'s accounting.
    gate = world.engine.all_of(procs)
    if stepped:
        while not gate.processed:
            world.engine.step()
    else:
        world.engine.run(gate)
    return _assemble(system, cfg, samples), world.engine.events_processed


#: 8 ranks on a k=4 fat-tree: most traffic takes the routed inter-edge
#: path (edge -> core -> edge), one NIC transmit pump per rank.
FATTREE8 = dict(ranks=8, topology="fattree", arity=4)


@pytest.mark.parametrize("pattern,kwargs,events", [
    ("halo2d", dict(ranks=4), None),
    ("allreduce", dict(ranks=5, algorithm="rd"), None),
    # Routed points pin their dispatched-event count per system: the
    # routed wire path's event structure is part of the contract.
    ("halo3d", FATTREE8, {"GM": 9373, "Portals": 13664}),
    ("allreduce", FATTREE8, {"GM": 5653, "Portals": 8010}),
], ids=["halo", "allreduce", "halo3d-fattree", "allreduce-fattree"])
@pytest.mark.parametrize("factory", [gm_system, portals_system],
                         ids=["gm", "portals"])
def test_stepped_pattern_run_is_byte_identical(factory, pattern, kwargs,
                                               events):
    # The N-rank completion path (all_of) exercises run()'s multi-waiter
    # bookkeeping, which the two-rank polling scenario above never hits.
    cfg = PatternConfig(pattern=pattern, msg_bytes=20 * KB,
                        work_interval_iters=20_000, iterations=3,
                        warmup_iterations=1, **kwargs)
    system = factory()
    via_run, n_run = _run_pattern_with(system, cfg, stepped=False)
    via_step, n_step = _run_pattern_with(system, cfg, stepped=True)
    assert via_step == via_run
    assert n_step == n_run
    if events is not None:
        assert n_run == events[system.name]
