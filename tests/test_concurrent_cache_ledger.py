"""Two processes sharing one point cache and one run ledger.

Concurrent ``comb`` runs may point at the same ``.comb_cache/`` and
``results/ledger/ledger.jsonl``.  The cache writes each record to a
per-process temporary file and renames it into place; the ledger appends
each record as one line.  Both processes here start together behind a
barrier, simulate the same points into the shared cache, and append run
records padded past ``PIPE_BUF`` to the shared ledger.
"""

from __future__ import annotations

import multiprocessing
import select
from pathlib import Path

from repro.config import gm_system
from repro.core import PointTask, PollingConfig, SweepExecutor
from repro.core.executor import PointCache, task_key
from repro.obs.ledger import RunLedger, ledger_path, read_records

KB = 1024

#: Cheap GM polling points (distinct intervals → distinct keys).
TASKS = [
    PointTask("polling", gm_system(), PollingConfig(
        msg_bytes=10 * KB, poll_interval_iters=interval,
        measure_s=0.002, warmup_s=0.0005, min_cycles=2,
    ))
    for interval in (1_000, 10_000, 100_000)
]

RUN_RECORDS = 8
#: Run-record padding: every ledger line exceeds ``PIPE_BUF`` many times.
PAD_BYTES = 64 * KB + 1


def _contend(cache_dir: str, ledger_dir: str, run_id: str,
             barrier) -> None:
    """One contender: sweep into the shared cache, then fill the ledger.
    Both contenders start each phase together."""
    barrier.wait(timeout=60)
    with SweepExecutor(cache=cache_dir, point_log=True) as executor:
        executor.run(TASKS)
    ledger = RunLedger(Path(ledger_dir), run_id, "figures")
    try:
        barrier.wait(timeout=60)
        ledger.record_points(executor.point_records)
        for i in range(RUN_RECORDS):
            ledger.record_run(
                wall_s=0.0, timestamp="t", compiled=False, reps=1,
                cache=executor.stats.to_dict(),
                extra={"index": i, "pad": run_id[-1] * PAD_BYTES},
            )
    finally:
        ledger.close()


def test_shared_cache_and_ledger_survive_two_processes(tmp_path):
    assert PAD_BYTES > select.PIPE_BUF
    cache_dir, ledger_dir = tmp_path / "cache", tmp_path / "ledger"
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_contend,
                    args=(str(cache_dir), str(ledger_dir), run_id, barrier))
        for run_id in ("runA", "runB")
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0]

    records, corrupt = read_records(ledger_path(ledger_dir))
    assert corrupt == 0
    for run_id in ("runA", "runB"):
        mine = [r for r in records if r["run_id"] == run_id]
        points = [r for r in mine if r["rec"] == "point"]
        runs = [r for r in mine if r["rec"] == "run"]
        assert len(points) == len(TASKS)
        assert [r["index"] for r in runs] == list(range(RUN_RECORDS))
        assert all(r["pad"] == run_id[-1] * PAD_BYTES for r in runs)

    with SweepExecutor() as serial:
        expected = serial.run(TASKS)
    cache = PointCache(cache_dir)
    assert len(cache) == len(TASKS)
    for task, point in zip(TASKS, expected):
        assert cache.get(task_key(task), task.kind) == point
    assert cache.evictions == 0
    assert not list(cache_dir.rglob("*.tmp.*"))
