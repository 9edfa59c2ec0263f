"""Cross-mode differential matrix: every mode, every golden point, pairwise.

One parametrized table replaces the bespoke parity checks that used to be
scattered across the suite (bare-vs-checked in the golden-drift module,
traced-vs-bare for patterns, …).  Every golden point runs under every
execution mode and the result dicts are byte-compared pairwise:

* **pure** — the unchecked fast path (the burst pump);
* **checked** — sanitizer attached, NICs forced onto the legacy
  per-packet path (also asserts zero violations);
* **traced** — an ambient :class:`Observer` tracing every world, which
  disarms the two-node burst fast path.

The **compiled** axis is a property of the running process
(``COMB_COMPILED=1`` with ``repro._simcore`` built): when active, every
row of this matrix already executed on the C kernel; a sentinel test
makes that leg visible (and visibly skipped when absent).

A replicated row (``reps=3`` on a quick config) closes the matrix over
the replication path: aggregated points must agree across modes too,
replication summaries included (deterministic configs give every mode
the same zero-width CIs).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import compiled
from repro.baselines import NetperfConfig, PingPongConfig
from repro.config import gm_system, portals_system
from repro.core import PointTask, PollingConfig, PwwConfig, SweepExecutor
from repro.obs import Observer, use_observer
from repro.patterns import PatternConfig

from repro.obs.lifecycle import Subscriber

from tests.test_verify_golden_drift import (
    ALLREDUCE_CFG,
    GOLDEN_PATH,
    HALO_CFG,
    POLL_CFG,
    PWW_CFG,
)

KB = 1024

#: 8 ranks on a k=4 fat-tree: most traffic crosses edge -> core -> edge,
#: the routed per-packet wire path (no mode arms burst batching there).
_FATTREE8 = dict(ranks=8, topology="fattree", arity=4)

#: A fan-in polling point: three support ranks feed one worker.
FANIN_TASK = PointTask("polling", portals_system(),
                       dataclasses.replace(POLL_CFG, peers=3))

#: A polling point on 2-CPU nodes: a compute load runs on CPU 1.
SMP_TASK = PointTask("polling", portals_system(cpus_per_node=2), POLL_CFG)

#: A ping-pong point as the golden recording runs it.
PINGPONG_TASK = PointTask("pingpong", gm_system(),
                          PingPongConfig(100 * KB, repeats=5, warmup_msgs=1))

#: A busy-waiting netperf point on a short delay loop (1 ms per phase).
NETPERF_TASK = PointTask("netperf", portals_system(), NetperfConfig(
    msg_bytes=50 * KB, wait_mode="busywait", delay_iters=250_000))

#: A GM PWW point whose work interval (2,000,000 iterations) is long
#: against its message time, so most of each batch is plain compute.
LONG_WORK_PWW_TASK = PointTask("pww", gm_system(), PwwConfig(
    msg_bytes=64 * KB, work_interval_iters=2_000_000, batches=4,
    warmup_batches=1))

#: The full golden matrix: every recorded sweep and pattern point, plus
#: the fan-in and SMP polling points, the two baselines and the long-work
#: PWW point (appended in that order, so the recorded rows keep their ids).
GOLDEN_TASKS = {
    "GM.polling": PointTask("polling", gm_system(), POLL_CFG),
    "GM.pww": PointTask("pww", gm_system(), PWW_CFG),
    "Portals.polling": PointTask("polling", portals_system(), POLL_CFG),
    "Portals.pww": PointTask("pww", portals_system(), PWW_CFG),
    "GM.halo2d": PointTask("pattern", gm_system(), HALO_CFG),
    "Portals.allreduce": PointTask("pattern", portals_system(),
                                   ALLREDUCE_CFG),
    "GM.halo3d.fattree": PointTask(
        "pattern", gm_system(),
        dataclasses.replace(HALO_CFG, pattern="halo3d", **_FATTREE8)),
    "Portals.allreduce.fattree": PointTask(
        "pattern", portals_system(),
        dataclasses.replace(ALLREDUCE_CFG, **_FATTREE8)),
    "Portals.polling.3peers": FANIN_TASK,
    "Portals.polling.smp2": SMP_TASK,
    "GM.pingpong": PINGPONG_TASK,
    "Portals.netperf": NETPERF_TASK,
    "GM.pww.longwork": LONG_WORK_PWW_TASK,
}

#: Routed rows -> their golden entry, which records the dispatched-event
#: count: identical in every mode, since none arms a fast path there.
ROUTED_GOLDEN_KEYS = {
    "GM.halo3d.fattree": "GM.pattern.halo3d.8r.fattree4",
    "Portals.allreduce.fattree": "Portals.pattern.allreduce.8r.fattree4",
}

#: Quick point for the replicated row (sub-second, still full-path).
QUICK_CFG = PollingConfig(msg_bytes=50 * KB, poll_interval_iters=1_000,
                          measure_s=0.005, warmup_s=0.002, min_cycles=2)

MODES = ("pure", "checked", "traced")


class _EventTap(Subscriber):
    """Collects each simulated point's dispatched-event count, in order."""

    def __init__(self):
        self.events = []

    def __call__(self, kind, fields):
        if kind == "point_end":
            self.events.append(fields["events"])


def _run_mode(mode: str, tasks, reps: int = 1, tap=None):
    """All ``tasks`` under one execution mode, as result dicts."""
    if mode == "checked":
        with SweepExecutor(jobs=1, check=True) as ex:
            if tap is not None:
                ex.subscribers.append(tap)
            points = ex.run(tasks, reps=reps)
            assert ex.violations == [], ex.violations
            assert ex.disagreements == [], ex.disagreements
        return [p.to_dict() for p in points]
    ex = SweepExecutor(jobs=1)
    if tap is not None:
        ex.subscribers.append(tap)
    if mode == "traced":
        with use_observer(Observer()):
            points = ex.run(tasks, reps=reps)
    else:
        points = ex.run(tasks, reps=reps)
    assert ex.disagreements == [], ex.disagreements
    return [p.to_dict() for p in points]


@pytest.fixture(scope="module")
def matrix_and_events():
    """({mode: [result dict per golden task]}, {mode: [events per task]})
    — each mode simulated once."""
    tasks = list(GOLDEN_TASKS.values())
    docs, events = {}, {}
    for mode in MODES:
        tap = _EventTap()
        docs[mode] = _run_mode(mode, tasks, tap=tap)
        events[mode] = tap.events
    return docs, events


@pytest.fixture(scope="module")
def matrix(matrix_and_events):
    return matrix_and_events[0]


@pytest.mark.parametrize("point_index,point_id",
                         [(i, name) for i, name in enumerate(GOLDEN_TASKS)])
@pytest.mark.parametrize("mode_a,mode_b", [
    ("pure", "checked"),
    ("pure", "traced"),
    ("checked", "traced"),
])
def test_modes_bit_identical_pairwise(matrix, point_index, point_id,
                                      mode_a, mode_b):
    doc_a = matrix[mode_a][point_index]
    doc_b = matrix[mode_b][point_index]
    assert doc_a == doc_b, (point_id, mode_a, mode_b)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("point_id", sorted(ROUTED_GOLDEN_KEYS))
def test_routed_points_dispatch_recorded_event_count(matrix_and_events,
                                                     point_id, mode):
    """The routed wire path's event structure is pinned, not just its
    timing: every mode dispatches exactly the recorded heap events."""
    golden = json.loads(GOLDEN_PATH.read_text())
    events = matrix_and_events[1][mode]
    assert len(events) == len(GOLDEN_TASKS)
    index = list(GOLDEN_TASKS).index(point_id)
    want = golden[ROUTED_GOLDEN_KEYS[point_id]]["events_processed"]
    assert events[index] == want, (point_id, mode)


def test_compiled_leg_visible(matrix):
    """When this process runs the C kernel, the whole matrix above
    already executed on it; this sentinel makes that leg visible."""
    if not compiled.active():
        pytest.skip(f"compiled core not active ({compiled.status()}); "
                    "pure-Python legs covered above")
    assert matrix["pure"][0]["availability"] > 0.0


def test_fanin_point_pooled_equals_serial(matrix):
    """A fan-in point fanned out to a spawn pool comes back bit-identical
    to the serial run (the pool needs two pending points to start)."""
    tasks = [FANIN_TASK, GOLDEN_TASKS["GM.polling"]]
    with SweepExecutor(jobs=2) as ex:
        pooled = [p.to_dict() for p in ex.run(tasks)]
    index = list(GOLDEN_TASKS).index("Portals.polling.3peers")
    assert pooled == [matrix["pure"][index], matrix["pure"][0]]


def test_smp_point_pooled_equals_serial(matrix):
    """An SMP point, per-CPU list included, comes back from a spawn pool
    bit-identical to the serial run."""
    tasks = [SMP_TASK, GOLDEN_TASKS["GM.polling"]]
    with SweepExecutor(jobs=2) as ex:
        pooled = [p.to_dict() for p in ex.run(tasks)]
    index = list(GOLDEN_TASKS).index("Portals.polling.smp2")
    assert len(pooled[0]["availability_per_cpu"]) == 2
    assert pooled == [matrix["pure"][index], matrix["pure"][0]]


def test_baseline_points_pooled_equal_serial(matrix):
    """Ping-pong and netperf points come back from a spawn pool
    bit-identical to the serial run."""
    with SweepExecutor(jobs=2) as ex:
        pooled = [p.to_dict() for p in ex.run([PINGPONG_TASK, NETPERF_TASK])]
    names = list(GOLDEN_TASKS)
    assert pooled == [matrix["pure"][names.index("GM.pingpong")],
                      matrix["pure"][names.index("Portals.netperf")]]


def test_pingpong_row_is_the_recorded_golden(matrix):
    golden = json.loads(GOLDEN_PATH.read_text())
    row = matrix["pure"][list(GOLDEN_TASKS).index("GM.pingpong")]
    assert row["latency_s"] == golden["GM.pingpong.100KB"]["latency_s"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("point_id", ["GM.pingpong", "Portals.netperf"])
def test_baseline_points_count_their_events(matrix_and_events, point_id,
                                            mode):
    """The baseline runners deposit their engine's event count, as the
    COMB method runners do."""
    events = matrix_and_events[1][mode]
    assert events[list(GOLDEN_TASKS).index(point_id)] > 0


#: ``to_dict()`` of the points on which the deleted quiescence clock jump
#: used to fire, recorded while it was live (GM sweep, 16 ranks on the
#: fat-tree; GM interleaved PWW).
QUIESCENCE_RECORDED = json.loads(
    (Path(__file__).parent / "data" / "quiescence_parity.json").read_text())

QUIESCENCE_TASKS = {
    "GM.sweep.16r.fattree": PointTask("pattern", gm_system(), PatternConfig(
        pattern="sweep", ranks=16, topology="fattree")),
    "GM.pww.50KB.interleave3": PointTask("pww", gm_system(), PwwConfig(
        msg_bytes=50 * KB, work_interval_iters=50_000, batches=5,
        warmup_batches=1, interleave=3)),
}


@pytest.mark.parametrize("point_id", sorted(QUIESCENCE_TASKS))
def test_matches_recorded_quiescence_points(point_id):
    """Plain compute reproduces, bit for bit, the points the clock jump
    used to shortcut."""
    point = SweepExecutor(jobs=1).run_one(QUIESCENCE_TASKS[point_id])
    assert point.to_dict() == QUIESCENCE_RECORDED[point_id]


# ------------------------------------------------------------- replicated row
@pytest.fixture(scope="module")
def replicated_matrix():
    """The quick polling point replicated (reps=3) under every mode."""
    task = PointTask("polling", gm_system(), QUICK_CFG)
    return {mode: _run_mode(mode, [task], reps=3)[0] for mode in MODES}


@pytest.mark.parametrize("mode_a,mode_b", [
    ("pure", "checked"),
    ("pure", "traced"),
    ("checked", "traced"),
])
def test_replicated_point_bit_identical_pairwise(replicated_matrix,
                                                 mode_a, mode_b):
    """Aggregated replicated points — replication summary included —
    agree across modes: deterministic configs give every mode the same
    zero-width CIs."""
    assert replicated_matrix[mode_a] == replicated_matrix[mode_b]


def test_replicated_point_summary_shape(replicated_matrix):
    summary = replicated_matrix["pure"]["replication"]
    assert summary["reps"] == 3
    assert summary["disagreements"] == 0
    avail = summary["metrics"]["availability"]
    assert avail["ci_low"] == avail["ci_high"] == avail["median"]
