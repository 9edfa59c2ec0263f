"""Shared helpers for the per-figure benchmark targets.

Each target in ``bench_figures.py`` regenerates one results figure of
the paper with ``pytest-benchmark`` timing the regeneration, prints the
series the paper's plot shows, and asserts the paper's qualitative
claims on the fresh data.  Coarse grids (1 point/decade) keep each
target in seconds; ``examples/reproduce_paper.py`` runs the
full-resolution version.
"""

from __future__ import annotations

from repro.analysis import FigureReport, render, run_figure

#: Benchmark grids: coarse but shape-preserving.
BENCH_PER_DECADE = 1


def regenerate(benchmark, fig_id: str, **kwargs) -> FigureReport:
    """Regenerate ``fig_id`` (and check its claims) under the timer."""

    def run() -> FigureReport:
        return run_figure(fig_id, **kwargs)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(report.figure))
    return report


def assert_claims(report: FigureReport) -> None:
    """Report the paper's claims on the regenerated data; fail loudly."""
    for claim in report.claims:
        print(f"  [{'PASS' if claim.ok else 'FAIL'}] {claim.claim} "
              f"({claim.detail})")
    failed = [c for c in report.claims if not c.ok]
    assert not failed, "; ".join(f"{c.claim}: {c.detail}" for c in failed)
