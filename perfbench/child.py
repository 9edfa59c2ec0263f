"""Child processes of the benchmark: the set-up probe and the cache fill.

    python3 perfbench/child.py setup <workload> <seed> <scratch-dir>
    python3 perfbench/child.py fill <seed> <cache-dir> <fig_id>...

``setup`` starts from a fresh interpreter, does what a pass does before
its first point dispatch (imports, registry, executor, cache and
channels) under a :class:`calibrate.Calibrator`, prints ``ready``, the
monotonic clock when its ``main`` started and when it was ready, and the
host-speed corrected seconds between the two, and exits.  ``fill``
writes every point of the given figures into a point cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard limit for one child, well inside the benchmark's own limit.
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("COMB_COMPILED", None)  # the pure-Python core, as users get it
    return env


def _cmd(*args: object) -> List[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def time_setup(workload: str, seed: int, scratch: Path,
               ) -> Tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first point
    dispatch, raw and host-speed corrected.  ``time.monotonic`` is one
    clock for every process.  The interpreter's start, before the
    child's calibrator runs, is corrected by the slowness measured just
    before the spawn."""
    from calibrate import slowness_now

    before = slowness_now()
    t0 = time.monotonic()
    proc = subprocess.run(_cmd("setup", workload, seed, scratch),
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 4 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    started, ready, corrected = map(float, words[1:])
    return ready - t0, (started - t0) / before + corrected


def fill_cache_in_child(cache_dir: Path, seed: int,
                        figures: Sequence[str]) -> None:
    """Simulate and store every point of ``figures`` in ``cache_dir``."""
    proc = subprocess.run(_cmd("fill", seed, cache_dir, *figures),
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cache fill failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process ``multiprocessing`` starts for
    the telemetry channel's semaphores, if one was started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _setup(workload: str, seed: int, scratch: Path) -> None:
    from calibrate import Calibrator

    started = (time.monotonic(), time.perf_counter())
    marks: List[Tuple[float, float]] = []
    with Calibrator() as cal:
        from probes import Probe
        from workloads import WORKLOADS, Context

        ctx = Context(ROOT, scratch, Probe(seed))
        try:
            WORKLOADS[workload]().open(ctx, lambda: marks.append(
                (time.monotonic(), time.perf_counter())))
        finally:
            stop_resource_tracker()
    (ready, ready_perf), = marks
    print("ready", repr(started[0]), repr(ready),
          repr(cal.corrected(started[1], ready_perf)), flush=True)


def main(argv: List[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if mode == "fill":
        from probes import Probe
        from repro.analysis import run_figure
        from repro.core import PointCache
        from workloads import PER_DECADE

        seed, cache_dir, figures = int(argv[1]), argv[2], argv[3:]
        with Probe(seed).executor(cache=PointCache(cache_dir)) as executor:
            for fig_id in figures:
                run_figure(fig_id, per_decade=PER_DECADE, executor=executor)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
