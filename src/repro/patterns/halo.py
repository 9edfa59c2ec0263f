"""Halo (ghost-cell) exchange: the AMG2023/stencil communication skeleton.

Every iteration each rank posts a non-blocking receive and send per
stencil neighbour (2·dims at the interior, fewer on faces/edges), works
for the configured interval with no MPI calls, then waits the whole
batch — the PWW discipline applied to a structured neighbourhood.  A
library-polled transport stalls every neighbour's rendezvous until the
wait phase; an offloaded one drains them under the work interval.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..mpi.request import Request
from .config import PATTERN_TAG, PatternConfig, balanced_grid, grid_neighbors


class HaloPlan:
    """Per-rank halo-exchange iteration driver."""

    def __init__(self, cfg: PatternConfig, rank: int):
        dims = 3 if cfg.pattern == "halo3d" else 2
        self.shape = tuple(cfg.grid) if cfg.grid else balanced_grid(
            cfg.ranks, dims
        )
        self.neighbors = grid_neighbors(rank, self.shape)
        #: Ghost payload per neighbour: a wider ghost layer moves
        #: proportionally more boundary data.
        self.nbytes = cfg.msg_bytes * cfg.ghost_width

    def iteration(
        self, h, ctx, cpu, work_dry_s: float
    ) -> Iterator[object]:
        """One post → work → wait cycle; returns phase durations."""
        engine = cpu.engine
        t0 = engine.now
        reqs: List[Request] = []
        for peer in self.neighbors:
            r = yield from h.irecv(peer, self.nbytes, tag=PATTERN_TAG)
            reqs.append(r)
        for peer in self.neighbors:
            s = yield from h.isend(peer, self.nbytes, tag=PATTERN_TAG)
            reqs.append(s)
        t1 = engine.now
        yield ctx.compute(work_dry_s)
        t2 = engine.now
        yield from h.waitall(reqs)
        t3 = engine.now
        return (t1 - t0, t2 - t1, t3 - t2)
