#!/usr/bin/env python3
"""Application-offload detection across four systems (paper §4.1).

Runs COMB's PWW-based offload test on the paper's two systems, the TCP
baseline stack, and the hypothetical no-interrupt offload NIC, then
contrasts the verdicts with the cruder White & Bova yes/no classification
(paper ref [11]).

Usage::

    python examples/offload_detection.py
"""

from repro import CombSuite, gm_system, portals_system, tcp_system
from repro.baselines import classify_overlap
from repro.config import offload_nic_system

KB = 1024


def main() -> None:
    systems = [gm_system(), portals_system(), tcp_system(),
               offload_nic_system()]

    print("COMB PWW offload test (does communication progress without")
    print("library calls?):")
    for system in systems:
        verdict = CombSuite(system).offload_verdict(msg_bytes=100 * KB)
        print(f"  {verdict.summary()}")

    print()
    print("White & Bova style binary overlap check, for contrast:")
    for system in systems:
        for size in (10 * KB, 100 * KB):
            c = classify_overlap(system, size)
            word = "overlaps" if c.overlaps else "serializes"
            print(f"  {c.system:10s} {size // KB:4d} KB: {word} "
                  f"(overlap fraction {c.overlap_fraction:5.2f})")

    print()
    print("The binary check conflates 'cheap communication' with 'true")
    print("overlap'; COMB's phase timing separates *where* the host spends")
    print("its cycles and whether progress needed the library at all.")


if __name__ == "__main__":
    main()
