"""Shared helpers for the per-figure benchmark targets.

Each target in ``bench_figures.py`` regenerates one results figure of
the paper with ``pytest-benchmark`` timing the regeneration, prints the
series the paper's plot shows, and asserts the paper's qualitative
claims on the fresh data.  Coarse grids (1 point/decade) keep each
target in seconds; ``examples/reproduce_paper.py`` runs the
full-resolution version.
"""

from __future__ import annotations

import pytest

from repro.analysis import render
from repro.analysis.claims import ALL_CLAIMS
from repro.analysis.figures import ALL_FIGURES, FigureData

#: Benchmark grids: coarse but shape-preserving.
BENCH_PER_DECADE = 1


def regenerate(benchmark, fig_id: str, **kwargs) -> FigureData:
    """Regenerate ``fig_id`` once under the benchmark timer."""
    generator = ALL_FIGURES[fig_id]

    def run() -> FigureData:
        return generator(**kwargs)

    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render(fig))
    return fig


def assert_claims(fig: FigureData) -> None:
    """Check the paper's claims on the regenerated data; fail loudly."""
    results = ALL_CLAIMS[fig.fig_id](fig)
    for claim in results:
        print(f"  [{'PASS' if claim.ok else 'FAIL'}] {claim.claim} "
              f"({claim.detail})")
    failed = [c for c in results if not c.ok]
    assert not failed, "; ".join(f"{c.claim}: {c.detail}" for c in failed)
