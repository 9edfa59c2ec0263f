#!/usr/bin/env python3
"""Why netperf's availability number misleads for MPI (paper §5).

netperf measures a delay loop beside a separate communication process and
assumes the latter blocks (select) while waiting.  OS-bypass MPI busy-waits
instead.  This example runs both waiting styles on three stacks and puts
COMB's own polling-method availability next to them.

Usage::

    python examples/netperf_pitfall.py
"""

from repro import PollingConfig, gm_system, portals_system, run_polling, tcp_system
from repro.baselines import NetperfConfig, run_netperf

KB = 1024


def main() -> None:
    print(f"{'system':10s} {'netperf/block':>14s} {'netperf/spin':>14s} "
          f"{'COMB polling':>14s}")
    for factory in (gm_system, tcp_system, portals_system):
        system = factory()
        block = run_netperf(system, NetperfConfig(100 * KB, "blocking"))
        spin = run_netperf(system, NetperfConfig(100 * KB, "busywait"))
        comb = run_polling(system, PollingConfig(
            msg_bytes=100 * KB, poll_interval_iters=1_000,
        ))
        print(f"{system.name:10s} "
              f"{block.availability:7.3f} ({block.bandwidth_MBps:4.0f}MB/s) "
              f"{spin.availability:7.3f} ({spin.bandwidth_MBps:4.0f}MB/s) "
              f"{comb.availability:7.3f} ({comb.bandwidth_MBps:4.0f}MB/s)")

    print()
    print("What went wrong, per the paper:")
    print("  * GM + blocking: the communication process waits in a select-")
    print("    style call, but GM only progresses inside library calls —")
    print("    traffic stops entirely (bandwidth 0) and netperf reports a")
    print("    meaningless 100% availability.")
    print("  * GM + busy-wait: the spinning process soaks its timeslices, so")
    print("    netperf reads ~50% even though GM's true overhead is ~zero")
    print("    (COMB: ~0.9 availability at full bandwidth).")
    print("  * COMB measures inside the MPI task itself, with the busy-wait")
    print("    semantics MPI actually uses.")


if __name__ == "__main__":
    main()
