#!/usr/bin/env python3
"""SMP nodes: the paper's §7 future work, implemented.

The uniprocessor availability method reports one number per node; on an
SMP node that number only describes the processor the interrupts land on.
This example runs the polling method on 2- and 4-way Portals nodes, where
every extra CPU carries a compute load, and reports each CPU's
availability.

Usage::

    python examples/smp_nodes.py
"""

from repro import PollingConfig, portals_system, run_polling

KB = 1024


def main() -> None:
    cfg = PollingConfig(msg_bytes=100 * KB, poll_interval_iters=1_000,
                        measure_s=0.03, warmup_s=0.005)
    for n_cpus in (2, 4):
        point = run_polling(portals_system(cpus_per_node=n_cpus), cfg)
        cpus = "  ".join(
            f"cpu{i}={a:.3f}" for i, a in enumerate(point.availability_per_cpu)
        )
        print(f"{n_cpus}-way node: bandwidth "
              f"{point.bandwidth_Bps / 1e6:6.2f} MB/s")
        print(f"  per-CPU availability: {cpus}")
        print(f"  naive single figure : {point.availability:.3f} "
              f"(describes only the interrupt CPU)")
        print()

    print("Interrupts are routed to CPU 0 (as on 2002-era Linux): the other")
    print("processors keep ~100% availability, which the uniprocessor")
    print("method cannot express — hence the per-CPU extension.")


if __name__ == "__main__":
    main()
