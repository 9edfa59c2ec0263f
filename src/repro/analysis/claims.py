"""Machine-checkable versions of the paper's qualitative claims.

Each checker consumes the regenerated :class:`FigureData` of its figure and
verifies the paper's statement about the *shape* (who wins, where knees
fall, what collapses).  The integration tests and the EXPERIMENTS.md report
both run these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .registry import FigureData


@dataclass
class ClaimResult:
    """Outcome of checking one claim."""

    fig_id: str
    claim: str
    ok: bool
    detail: str


def check_fig04(fig: FigureData) -> List[ClaimResult]:
    """Availability: low stable plateau, then a steep rise towards ~1."""
    out = []
    for c in fig.curves:
        lo, hi = c.y[0], max(c.y)
        ok = lo < 0.45 and hi > 0.9
        out.append(ClaimResult(
            "fig04",
            f"{c.label}: availability rises from a low plateau to ~1",
            ok, f"start={lo:.3f}, max={hi:.3f}",
        ))
    return out


def check_fig05(fig: FigureData) -> List[ClaimResult]:
    """Bandwidth: plateau then steep decline; plateau near 50 MB/s."""
    out = []
    for c in fig.curves:
        peak, tail = max(c.y), c.y[-1]
        out.append(ClaimResult(
            "fig05",
            f"{c.label}: plateau then decline (tail < 20% of peak)",
            tail < 0.2 * peak, f"peak={peak:.1f} MB/s, tail={tail:.1f} MB/s",
        ))
    big = [c for c in fig.curves if c.label in ("100 KB", "300 KB")]
    for c in big:
        # The plateau is the small-interval region (before the knee, and
        # before the batched-reply bump near it).
        plateau_vals = [y for x, y in zip(c.x, c.y) if x <= 1e4]
        plateau = float(np.median(plateau_vals)) if plateau_vals else 0.0
        out.append(ClaimResult(
            "fig05", f"{c.label}: plateau in the paper's 35–60 MB/s band",
            35 <= plateau <= 60, f"plateau={plateau:.1f} MB/s",
        ))
    return out


def check_fig06(fig: FigureData) -> List[ClaimResult]:
    """Availability rises monotonically-ish; no initial flat plateau."""
    out = []
    for c in fig.curves:
        ok = c.y[0] < 0.2 and max(c.y) > 0.8 and c.y[-1] > 0.6
        out.append(ClaimResult(
            "fig06", f"{c.label}: wait suppresses availability at small work",
            ok, f"start={c.y[0]:.3f}, max={max(c.y):.3f}",
        ))
    return out


def check_fig07(fig: FigureData) -> List[ClaimResult]:
    """Bandwidth declines as the work interval grows."""
    out = []
    for c in fig.curves:
        out.append(ClaimResult(
            "fig07", f"{c.label}: bandwidth declines with work interval",
            c.y[-1] < 0.25 * max(c.y),
            f"peak={max(c.y):.1f}, tail={c.y[-1]:.1f} MB/s",
        ))
    return out


def check_fig08(fig: FigureData) -> List[ClaimResult]:
    """GM plateau significantly above Portals (≈88 vs ≈50 MB/s)."""
    gm, po = max(fig.curve("GM").y), max(fig.curve("Portals").y)
    return [
        ClaimResult("fig08", "GM bandwidth significantly exceeds Portals",
                    gm > 1.4 * po, f"GM={gm:.1f}, Portals={po:.1f} MB/s"),
        ClaimResult("fig08", "GM plateau in the paper's 80–95 MB/s band",
                    80 <= gm <= 95, f"GM={gm:.1f} MB/s"),
    ]


def check_fig09(fig: FigureData) -> List[ClaimResult]:
    """GM > Portals at small work intervals; curves converge later."""
    gm, po = fig.curve("GM"), fig.curve("Portals")
    small_gap = gm.y[0] > 1.2 * po.y[0]
    tail_close = abs(gm.y[-1] - po.y[-1]) < 0.35 * max(gm.y[-1], po.y[-1], 1e-9)
    return [
        ClaimResult("fig09", "GM wins at small work intervals",
                    small_gap, f"GM={gm.y[0]:.1f}, Portals={po.y[0]:.1f} MB/s"),
        ClaimResult("fig09", "curves converge at large work intervals",
                    tail_close, f"GM={gm.y[-1]:.1f}, Portals={po.y[-1]:.1f} MB/s"),
    ]


def check_fig10(fig: FigureData) -> List[ClaimResult]:
    """GM post times far below Portals (user-level vs kernel trap)."""
    gm = float(np.mean(fig.curve("GM").y))
    po = float(np.mean(fig.curve("Portals").y))
    return [ClaimResult(
        "fig10", "GM significantly outperforms Portals on post time",
        gm * 3 < po, f"GM={gm:.1f} µs, Portals={po:.1f} µs per message",
    )]


def check_fig11(fig: FigureData) -> List[ClaimResult]:
    """Portals wait → ~0 at large work (offload); GM wait stays high."""
    gm, po = fig.curve("GM"), fig.curve("Portals")
    return [
        ClaimResult("fig11", "Portals virtually completes messaging in work",
                    po.y[-1] < 200, f"Portals tail wait={po.y[-1]:.0f} µs"),
        ClaimResult("fig11", "GM does not (no application offload)",
                    gm.y[-1] > 1200, f"GM tail wait={gm.y[-1]:.0f} µs"),
    ]


def check_fig12(fig: FigureData) -> List[ClaimResult]:
    """Portals work-with-MH exceeds work-only (interrupt overhead)."""
    mh = np.asarray(fig.curve("Work with MH").y)
    dry = np.asarray(fig.curve("Work Only").y)
    gap = float(np.mean(mh - dry))
    return [ClaimResult(
        "fig12", "work with message handling takes longer (overhead gap)",
        bool(np.all(mh >= dry)) and gap > 300,
        f"mean gap={gap:.0f} µs",
    )]


def check_fig13(fig: FigureData) -> List[ClaimResult]:
    """GM shows virtually no communication overhead in the work phase."""
    mh = np.asarray(fig.curve("Work with MH").y)
    dry = np.asarray(fig.curve("Work Only").y)
    gap = float(np.max(np.abs(mh - dry)))
    return [ClaimResult(
        "fig13", "work time identical with/without communication",
        gap < 50, f"max gap={gap:.1f} µs",
    )]


def check_fig14(fig: FigureData) -> List[ClaimResult]:
    """GM holds max bandwidth at high availability; 10 KB is the exception."""
    out = []
    for c in fig.curves:
        peak = max(c.y)
        # Highest availability at which ≥90% of peak bandwidth is sustained.
        avail_at_peak = max(
            (a for a, b in zip(c.x, c.y) if b >= 0.9 * peak), default=0.0
        )
        if c.label == "10 KB":
            ok = avail_at_peak < 0.8
            claim = "10 KB: eager sends depress availability at peak bw"
        else:
            ok = avail_at_peak > 0.85
            claim = f"{c.label}: max bandwidth at ≥0.85 availability"
        out.append(ClaimResult("fig14", claim, ok,
                               f"availability at peak={avail_at_peak:.2f}"))
    return out


def check_fig15(fig: FigureData) -> List[ClaimResult]:
    """Portals max bandwidth confined to low availability."""
    out = []
    for c in fig.curves:
        peak = max(c.y)
        avail_at_peak = max(
            (a for a, b in zip(c.x, c.y) if b >= 0.9 * peak), default=0.0
        )
        out.append(ClaimResult(
            "fig15", f"{c.label}: max bandwidth only at low availability",
            avail_at_peak < 0.6, f"availability at peak={avail_at_peak:.2f}",
        ))
    return out


def _bw_at_availability(curve, lo: float, hi: float) -> float:
    vals = [b for a, b in zip(curve.x, curve.y) if lo <= a <= hi]
    return max(vals) if vals else 0.0


def check_fig16(fig: FigureData) -> List[ClaimResult]:
    """At mid/high availability, polling sustains far more bandwidth than
    PWW on GM."""
    poll = _bw_at_availability(fig.curve("Poll"), 0.7, 0.97)
    pww = _bw_at_availability(fig.curve("PWW"), 0.7, 0.97)
    return [ClaimResult(
        "fig16", "polling sustains bandwidth at availabilities where PWW "
                 "has collapsed",
        poll > 2 * pww, f"poll={poll:.1f}, pww={pww:.1f} MB/s @ avail 0.7–0.97",
    )]


def _max_avail_with_bw(curve, bw_min: float) -> float:
    vals = [a for a, b in zip(curve.x, curve.y) if b >= bw_min]
    return max(vals) if vals else 0.0


def check_fig17(fig: FigureData) -> List[ClaimResult]:
    """One MPI_Test in the work phase recovers much of the lost overlap:
    the +Test variant sustains useful bandwidth (≥ 30 MB/s) to markedly
    higher CPU availabilities than plain PWW."""
    av_pww = _max_avail_with_bw(fig.curve("PWW"), 30.0)
    av_test = _max_avail_with_bw(fig.curve("PWW + Test"), 30.0)
    return [ClaimResult(
        "fig17", "the added library call aids progressing communication",
        av_test >= av_pww + 0.15,
        f"30 MB/s sustained to availability {av_test:.2f} with the test vs "
        f"{av_pww:.2f} without",
    )]


#: Claim checkers keyed by figure id.
ALL_CLAIMS: Dict[str, Callable[[FigureData], List[ClaimResult]]] = {
    "fig04": check_fig04, "fig05": check_fig05, "fig06": check_fig06,
    "fig07": check_fig07, "fig08": check_fig08, "fig09": check_fig09,
    "fig10": check_fig10, "fig11": check_fig11, "fig12": check_fig12,
    "fig13": check_fig13, "fig14": check_fig14, "fig15": check_fig15,
    "fig16": check_fig16, "fig17": check_fig17,
}
