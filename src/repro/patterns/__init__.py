"""Application communication patterns as first-class N-rank workloads.

The COMB methods measure overlap between *one* worker and *one* support
process; real applications exchange with many neighbours in structured
patterns.  This package runs the paper's availability metric on the
communication skeletons of the Benchpark/Caliper application suite
(AMG2023-style stencils, Kripke-style sweeps, solver allreduces), each on
an N-rank world built from a :class:`~repro.hardware.topology.Topology`:

* **halo2d / halo3d** — nearest-neighbour ghost exchange on a balanced
  process grid (post all neighbour sends/receives, work, wait);
* **sweep** — a Kripke/KBA wavefront: each rank waits on its upstream
  corner, computes, then forwards downstream;
* **allreduce** — work followed by a global reduction (binomial tree or
  recursive doubling, built on :mod:`repro.mpi.collectives`).

Every pattern reports the paper's overlap metrics per rank plus
aggregates across ranks, flows through the sweep executor/cache, the
scenario runner, the CLI (``comb pattern``), and the attribution
pipeline (each rank emits the standard ``pww_phase`` trace events).

Fan-in — one polling worker fed by several support ranks — is not a
pattern here: it is the polling method itself with
``PollingConfig(peers=N)`` (:mod:`repro.core.polling`).
"""

from .config import (
    PATTERN_KINDS,
    PATTERN_TAG,
    PatternConfig,
    balanced_grid,
    grid_neighbors,
    halo_pairs,
)
from .results import PatternPoint, RankSample
from .runner import run_pattern

__all__ = [
    "PATTERN_KINDS",
    "PATTERN_TAG",
    "PatternConfig",
    "PatternPoint",
    "RankSample",
    "balanced_grid",
    "grid_neighbors",
    "halo_pairs",
    "run_pattern",
]
