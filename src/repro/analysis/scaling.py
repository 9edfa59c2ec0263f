"""Claim checks for the pattern scaling figures.

The scaling figures go beyond the paper's two-node figures: they sweep
the application communication patterns (:mod:`repro.patterns`) over
rank counts on both fabrics and plot the availability scaling curve per
transport.  The paper's §4 prediction extends naturally — a
library-polled transport's Progress Rule penalty compounds with
neighbour count, while an offloaded transport's availability should
survive scale — and the claim checkers here pin exactly that.

The figures themselves are :data:`~repro.analysis.registry.FIGURE_SPECS`
entries (``scale_halo``, ``scale_allreduce``).  They are not part of the
default ``comb report`` grid (the paper has no such figure); run them
explicitly::

    comb figures --ids scale_halo scale_allreduce
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .claims import ClaimResult
from .registry import FigureData

__all__ = ["SCALING_CLAIMS"]


def _check_scaling(fig: FigureData) -> List[ClaimResult]:
    """Shared shape checks for the pattern scaling figures.

    * every availability is a valid fraction in (0, 1];
    * adding neighbours costs availability: every curve ends below its
      two-rank starting point;
    * at the largest rank count the OS-bypass transport (GM) retains
      more availability than the interrupt-driven one (Portals) — each
      extra neighbour's packets interrupt the host CPU (the fig 12
      message-handling tax), so the per-neighbour cost compounds for
      Portals while GM only pays its (rank-independent) Progress Rule
      wait.
    """
    out: List[ClaimResult] = []
    for c in fig.curves:
        ok = all(0.0 < y <= 1.0 for y in c.y)
        out.append(ClaimResult(
            fig.fig_id,
            f"{c.label}: availability stays a valid fraction",
            ok, f"min={min(c.y):.3f}, max={max(c.y):.3f}",
        ))
        out.append(ClaimResult(
            fig.fig_id,
            f"{c.label}: neighbours cost availability "
            f"({int(c.x[-1])} ranks below 2 ranks)",
            c.y[-1] < c.y[0],
            f"2 ranks={c.y[0]:.3f}, {int(c.x[-1])} ranks={c.y[-1]:.3f}",
        ))
    for topology in ("crossbar", "fattree"):
        gm = fig.curve(f"GM ({topology})")
        portals = fig.curve(f"Portals ({topology})")
        out.append(ClaimResult(
            fig.fig_id,
            f"{topology}: interrupt-driven progress pays the compounding "
            f"per-neighbour tax (GM > Portals at {int(gm.x[-1])} ranks)",
            gm.y[-1] > portals.y[-1],
            f"GM={gm.y[-1]:.3f}, Portals={portals.y[-1]:.3f}",
        ))
    return out


#: Claim checkers of the opt-in scaling figures, keyed by figure id.
SCALING_CLAIMS: Dict[str, Callable[[FigureData], List[ClaimResult]]] = {
    "scale_halo": _check_scaling,
    "scale_allreduce": _check_scaling,
}
