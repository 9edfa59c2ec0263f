#!/usr/bin/env python3
"""Fan-in scaling: one worker, many neighbours.

Extends the paper's two-node polling method to 1–7 support peers (the
8-port switch's limit) via ``PollingConfig(peers=n)`` and shows where
each stack saturates: GM at the worker's host bus (availability
untouched), Portals at the worker's CPU (availability collapses while
bandwidth barely gains).

Usage::

    python examples/fanin_scaling.py
"""

import dataclasses

from repro.config import gm_system, portals_system
from repro.core import PollingConfig, run_polling

KB = 1024


def main() -> None:
    cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                        measure_s=0.1, warmup_s=0.02)
    for factory in (gm_system, portals_system):
        system = factory()
        print(f"=== {system.name} ===")
        print(f"  {'peers':>5s} {'aggregate bw':>13s} {'per peer':>10s} "
              f"{'avail':>7s} {'irq/s':>8s}")
        for n in (1, 2, 4, 7):
            pt = run_polling(system, dataclasses.replace(cfg, peers=n))
            print(f"  {n:5d} {pt.bandwidth_MBps:10.1f} MB/s "
                  f"{pt.bandwidth_Bps / n / 1e6:7.1f} MB/s "
                  f"{pt.availability:7.3f} "
                  f"{pt.interrupts / pt.elapsed_s:8.0f}")
        print()
    print("GM: the shared host bus is the ceiling; adding peers dilutes")
    print("per-peer bandwidth but costs the worker no CPU.  Portals: every")
    print("peer's packets interrupt the same worker CPU, so availability")
    print("sinks toward the floor while aggregate bandwidth plateaus.")


if __name__ == "__main__":
    main()
