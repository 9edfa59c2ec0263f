"""Reproduction report: regenerate figures, check claims, render text."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.executor import SweepExecutor, current_executor
from .ascii_plot import render
from .claims import ALL_CLAIMS, ClaimResult
from .registry import ALL_FIGURES, FIGURE_SPECS, FigureData, build_figure
from .scaling import SCALING_CLAIMS


@dataclass
class FigureReport:
    """One regenerated figure plus its claim checks."""

    figure: FigureData
    claims: List[ClaimResult] = field(default_factory=list)
    #: Wall-clock spent regenerating this figure (ledger/stream feed).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """All claims for this figure hold."""
        return all(c.ok for c in self.claims)


def run_figure(fig_id: str, per_decade: int = 2,
               executor: Optional[SweepExecutor] = None,
               **kwargs) -> FigureReport:
    """Regenerate one figure and check its claims.

    Every figure is its :data:`~repro.analysis.registry.FIGURE_SPECS`
    entry interpreted by :func:`~repro.analysis.registry.build_figure`;
    ``kwargs`` are that function's runtime knobs.  The claims come from
    the checker of the spec's ``claims_id`` (default: ``fig_id``) in
    :data:`~repro.analysis.claims.ALL_CLAIMS` or
    :data:`~repro.analysis.scaling.SCALING_CLAIMS`; a figure without a
    checker is an error, not a figure with no claims.

    ``executor`` parallelizes/caches the figure's sweeps (see
    :class:`~repro.core.executor.SweepExecutor`); ``None`` runs it on a
    fresh serial executor (:func:`~repro.core.executor.current_executor`).
    The figure is bracketed by ``figure_start`` / ``figure_end``
    lifecycle events on that executor.
    """
    spec = FIGURE_SPECS.get(fig_id)
    if spec is None:
        raise KeyError(f"unknown figure {fig_id!r}; "
                       f"have {sorted(FIGURE_SPECS)}")
    checker = {**ALL_CLAIMS, **SCALING_CLAIMS}[spec.claims_id or fig_id]
    executor = current_executor(executor)
    executor.publish("figure_start", figure=fig_id)
    t0_wall = time.perf_counter()
    fig = build_figure(spec, per_decade=per_decade, executor=executor,
                       **kwargs)
    wall_s = time.perf_counter() - t0_wall
    executor.publish("figure_end", figure=fig_id, wall_s=wall_s)
    return FigureReport(fig, checker(fig), wall_s=wall_s)


def run_all(per_decade: int = 2,
            fig_ids: Optional[Sequence[str]] = None,
            executor: Optional[SweepExecutor] = None) -> List[FigureReport]:
    """Regenerate every requested figure (default: all of Figs 4–17).

    One executor (``executor``, else a fresh serial one) runs every
    figure, so overlapping figures are nearly free: points already
    simulated for an earlier figure come back from its memo/cache.
    """
    executor = current_executor(executor)
    return [run_figure(fid, per_decade=per_decade, executor=executor)
            for fid in fig_ids or ALL_FIGURES]


def format_report(reports: Sequence[FigureReport], plots: bool = True) -> str:
    """Human-readable reproduction report."""
    lines: List[str] = []
    n_ok = sum(1 for r in reports for c in r.claims if c.ok)
    n_all = sum(len(r.claims) for r in reports)
    lines.append(f"COMB reproduction report — {n_ok}/{n_all} claims hold")
    lines.append("=" * 64)
    for rep in reports:
        lines.append("")
        if plots:
            lines.append(render(rep.figure))
        else:
            lines.append(f"{rep.figure.fig_id}: {rep.figure.title}")
        for c in rep.claims:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.claim} ({c.detail})")
        if rep.figure.notes:
            lines.append(f"  note: {rep.figure.notes}")
    return "\n".join(lines)
