"""Per-figure benchmark targets: one per results figure of the paper.

One table, one driver: every figure in ``ALL_FIGURES`` is regenerated
under the benchmark timer on a coarse grid, and the paper's claims are
checked on the fresh data.  The table lists the figures that take
extra sweep arguments (the linear-grid figures ignore ``per_decade``).
Select targets with ``-k``::

    pytest benchmarks/bench_figures.py -k "fig04 or fig11" --benchmark-only
"""

import pytest

from conftest import BENCH_PER_DECADE, assert_claims, regenerate
from repro.analysis import ALL_FIGURES

#: Linear work-interval grids (iterations) for the overhead figures.
LINEAR_GRID = (100_000, 300_000, 500_000)

#: Figure id -> extra sweep arguments.
SWEEP_ARGS = {
    "fig12": {"grid": LINEAR_GRID},
    "fig13": {"grid": LINEAR_GRID},
}


@pytest.mark.parametrize("fig_id", sorted(ALL_FIGURES))
def test_figure(benchmark, fig_id):
    """Regenerate one figure and check the paper's claims."""
    assert_claims(regenerate(benchmark, fig_id, per_decade=BENCH_PER_DECADE,
                             **SWEEP_ARGS.get(fig_id, {})))
