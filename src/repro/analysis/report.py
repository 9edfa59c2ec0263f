"""Reproduction report: regenerate figures, check claims, render text."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.executor import SweepExecutor, current_executor, use_executor
from .ascii_plot import render
from .claims import ALL_CLAIMS, ClaimResult
from .figures import ALL_FIGURES, FigureData
from .registry import FIGURE_SPECS, build_figure
from .scaling import SCALING_CLAIMS, SCALING_FIGURES


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

    ``executor`` parallelizes/caches the figure's sweeps (see
    :class:`~repro.core.executor.SweepExecutor`); ``None`` uses the
    ambient executor (:func:`~repro.core.executor.current_executor`).
    The figure is bracketed by ``figure_start`` / ``figure_end``
    lifecycle events on that executor.
    """
    generator = ALL_FIGURES.get(fig_id) or SCALING_FIGURES.get(fig_id)
    if generator is None and fig_id not in FIGURE_SPECS:
        known = sorted(ALL_FIGURES) + sorted(SCALING_FIGURES) + sorted(
            f for f in FIGURE_SPECS
            if f not in ALL_FIGURES and f not in SCALING_FIGURES
        )
        raise KeyError(f"unknown figure {fig_id!r}; have {known}")
    executor = current_executor(executor)
    executor.publish("figure_start", figure=fig_id)
    t0_wall = time.perf_counter()
    with use_executor(executor):
        if generator is None:
            # Registry-only entry (e.g. a CI-band variant): interpret
            # the spec directly.
            fig = build_figure(FIGURE_SPECS[fig_id], per_decade=per_decade,
                               **kwargs)
        elif fig_id in ("fig12", "fig13"):
            fig = generator(**kwargs)  # linear grids take no per_decade
        else:
            fig = generator(per_decade=per_decade, **kwargs)
    wall_s = time.perf_counter() - t0_wall
    executor.publish("figure_end", figure=fig_id, wall_s=wall_s)
    claims_id = fig_id
    spec = FIGURE_SPECS.get(fig_id)
    if spec is not None and spec.claims_id:
        claims_id = spec.claims_id  # CI variants inherit base claims
    checker = ALL_CLAIMS.get(claims_id) or SCALING_CLAIMS.get(claims_id)
    claims = checker(fig) if checker is not None else []
    return FigureReport(fig, claims, wall_s=wall_s)


def run_all(per_decade: int = 2,
            fig_ids: Optional[Sequence[str]] = None,
            executor: Optional[SweepExecutor] = None) -> List[FigureReport]:
    """Regenerate every requested figure (default: all of Figs 4–17).

    A shared ``executor`` makes overlapping figures nearly free: points
    already simulated for an earlier figure come back from its memo/cache.
    """
    ids = list(fig_ids) if fig_ids else sorted(ALL_FIGURES)
    return [run_figure(fid, per_decade=per_decade, executor=executor)
            for fid in ids]


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
