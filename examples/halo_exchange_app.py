#!/usr/bin/env python3
"""What overlap is worth to an application: a halo-exchange loop.

The paper's introduction motivates COMB with exactly this question: given
that microbenchmarks report great latency/bandwidth, how much time does a
*real* compute/communicate loop actually save by overlapping?  This example
runs an iterative two-rank "stencil": each iteration computes for a fixed
work interval and exchanges a 100 KB halo with the neighbour, under three
programming styles:

* **blocking** — `sendrecv` after the compute (no overlap attempted);
* **nonblocking** — post `isend`/`irecv`, compute, `waitall` (the PWW
  pattern: overlap only if the system provides application offload);
* **nonblocking+test** — same, with one `MPI_Test` poked into the compute
  (the paper's §4.3 remedy for library-polled stacks).

Usage::

    python examples/halo_exchange_app.py [--iters 30] [--work 1000000]
"""

import argparse

from repro.config import gm_system, offload_nic_system, portals_system
from repro.mpi import build_world

KB = 1024
HALO = 100 * KB


def run_app(system, style: str, iterations: int, work_iters: int) -> float:
    """Wall time per iteration of the halo-exchange loop."""
    world = build_world(system)
    engine = world.engine
    iter_s = system.machine.cpu.work_iter_s
    out = {}

    def rank(rank_id, record):
        node = world.cluster[rank_id]
        ctx = node.new_context(f"halo.rank{rank_id}")
        h = world.endpoint(rank_id).bind(ctx)
        peer = 1 - rank_id
        t0 = engine.now
        for _i in range(iterations):
            if style == "blocking":
                yield ctx.compute(work_iters * iter_s)
                yield from h.sendrecv(peer, HALO, peer, HALO,
                                      sendtag=1, recvtag=1)
            else:
                rreq = yield from h.irecv(peer, HALO, tag=1)
                sreq = yield from h.isend(peer, HALO, tag=1)
                if style == "nonblocking+test":
                    # Two tests, spread out: with symmetric workers the
                    # peer's clear-to-send lands after our first call, so a
                    # single test (enough in COMB's asymmetric PWW) is not.
                    yield ctx.compute(work_iters * iter_s * 0.1)
                    yield from h.testsome([rreq, sreq])
                    yield ctx.compute(work_iters * iter_s * 0.2)
                    yield from h.testsome([rreq, sreq])
                    yield ctx.compute(work_iters * iter_s * 0.7)
                else:
                    yield ctx.compute(work_iters * iter_s)
                yield from h.waitall([rreq, sreq])
        if record:
            out["per_iter"] = (engine.now - t0) / iterations

    p0 = engine.spawn(rank(0, True))
    p1 = engine.spawn(rank(1, False))
    engine.run(engine.all_of([p0, p1]))
    return out["per_iter"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20)
    parser.add_argument("--work", type=int, default=1_000_000,
                        help="compute per iteration (loop iterations; 1M = 4 ms)")
    args = parser.parse_args()

    systems = [gm_system(), portals_system(), offload_nic_system()]
    styles = ["blocking", "nonblocking", "nonblocking+test"]

    print(f"halo exchange: {HALO // KB} KB each way, "
          f"{args.work} loop iterations of compute per step\n")
    print(f"{'system':12s} " + " ".join(f"{s:>18s}" for s in styles)
          + f" {'best speedup':>13s}")
    for system in systems:
        times = [run_app(system, style, args.iters, args.work)
                 for style in styles]
        speedup = times[0] / min(times)
        cells = " ".join(f"{t * 1e3:15.3f} ms" for t in times)
        print(f"{system.name:12s} {cells} {speedup:12.2f}x")

    print()
    print("Reading the table:")
    print("  * Portals/OffloadNIC: the plain nonblocking loop hides the")
    print("    exchange inside the compute (application offload) — the")
    print("    speedup COMB's PWW method predicts.")
    print("  * GM: nonblocking alone buys ~nothing (no offload; the wait")
    print("    phase still pays the transfer); adding one MPI_Test during")
    print("    the compute recovers the overlap (§4.3).")


if __name__ == "__main__":
    main()
