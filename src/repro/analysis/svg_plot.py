"""Dependency-free SVG rendering of :class:`FigureData`.

Produces self-contained ``.svg`` files (no matplotlib required — the
environment is offline) with linear/log axes, per-curve colours and
markers, gridlines and a legend, so the regenerated paper figures are
viewable in any browser.  ``export_figures(..., svg=True)`` and
``comb figures --out DIR`` write them alongside the CSV/JSON.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .registry import Curve, FigureData

#: Curve colour cycle (colour-blind-safe-ish hexes).
COLORS = ["#0072b2", "#d55e00", "#009e73", "#cc79a7",
          "#e69f00", "#56b4e9", "#f0e442", "#000000"]

#: Plot geometry.
WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 60


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Roughly ``n`` round-valued ticks covering [lo, hi] (linear)."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, n)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


def _log_ticks(lo: float, hi: float) -> List[float]:
    lo_e = math.floor(math.log10(lo)) if lo > 0 else 0
    hi_e = math.ceil(math.log10(hi)) if hi > 0 else 1
    return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        exp = int(math.floor(math.log10(abs(v))))
        mant = v / 10 ** exp
        if abs(mant - 1.0) < 1e-9:
            return f"1e{exp}"
        return f"{mant:.3g}e{exp}"
    return f"{v:.4g}"


class _Axis:
    """Maps data coordinates to pixel coordinates for one axis."""

    def __init__(self, lo: float, hi: float, scale: str,
                 pix_lo: float, pix_hi: float):
        self.scale = scale
        if scale == "log":
            lo = max(lo, 1e-300)
            hi = max(hi, lo * 10)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            if hi <= lo:
                hi = lo + 1.0
            self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v: float) -> Optional[float]:
        if self.scale == "log":
            if v <= 0:
                return None
            t = math.log10(v)
        else:
            t = v
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def render_svg(fig: FigureData) -> str:
    """Render the figure as an SVG document string."""
    xs = [x for c in fig.curves for x in c.x
          if fig.xscale != "log" or x > 0]
    ys = [y for c in fig.curves for y in c.y
          if fig.yscale != "log" or y > 0]
    # CI bands participate in the y range so they never clip.
    ys += [y for c in fig.curves if c.y_lo is not None and c.y_hi is not None
           for y in list(c.y_lo) + list(c.y_hi)
           if fig.yscale != "log" or y > 0]
    if not xs or not ys:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                f'height="{HEIGHT}"><text x="20" y="40">'
                f"{fig.fig_id}: no data</text></svg>")
    y_lo = 0.0 if fig.yscale == "linear" else min(ys)
    x_axis = _Axis(min(xs), max(xs), fig.xscale,
                   MARGIN_L, WIDTH - MARGIN_R)
    y_axis = _Axis(y_lo, max(ys) * 1.05, fig.yscale,
                   HEIGHT - MARGIN_B, MARGIN_T)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
        f'font-size="14" font-weight="bold">{_esc(fig.title)}</text>',
    ]

    # Grid + ticks.
    x_ticks = (_log_ticks(min(xs), max(xs)) if fig.xscale == "log"
               else _nice_ticks(min(xs), max(xs)))
    y_hi_val = max(ys) * 1.05
    y_ticks = (_log_ticks(min(ys), y_hi_val) if fig.yscale == "log"
               else _nice_ticks(y_lo, y_hi_val))
    for tv in x_ticks:
        px = x_axis.to_pix(tv)
        if px is None or not (MARGIN_L - 1 <= px <= WIDTH - MARGIN_R + 1):
            continue
        parts.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
            f'text-anchor="middle">{_fmt(tv)}</text>'
        )
    for tv in y_ticks:
        py = y_axis.to_pix(tv)
        if py is None or not (MARGIN_T - 1 <= py <= HEIGHT - MARGIN_B + 1):
            continue
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{py:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{py + 4:.1f}" '
            f'text-anchor="end">{_fmt(tv)}</text>'
        )

    # Axes frame + labels.
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
        f'stroke="black"/>'
    )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" '
        f'y="{HEIGHT - 14}" text-anchor="middle">{_esc(fig.xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{_esc(fig.ylabel)}</text>'
    )

    # Curves.
    for i, curve in enumerate(fig.curves):
        color = COLORS[i % len(COLORS)]
        # Replication CI band: a shaded polygon under the polyline
        # (upper edge forward, lower edge reversed).
        if curve.y_lo is not None and curve.y_hi is not None:
            band: List[Tuple[float, float]] = []
            for x, y in zip(curve.x, curve.y_hi):
                px, py = x_axis.to_pix(x), y_axis.to_pix(y)
                if px is not None and py is not None:
                    band.append((px, py))
            lower: List[Tuple[float, float]] = []
            for x, y in zip(curve.x, curve.y_lo):
                px, py = x_axis.to_pix(x), y_axis.to_pix(y)
                if px is not None and py is not None:
                    lower.append((px, py))
            band.extend(reversed(lower))
            if len(band) >= 3:
                path = " ".join(f"{x:.1f},{y:.1f}" for x, y in band)
                parts.append(
                    f'<polygon points="{path}" fill="{color}" '
                    f'fill-opacity="0.15" stroke="none"/>'
                )
        pts: List[Tuple[float, float]] = []
        for x, y in zip(curve.x, curve.y):
            px, py = x_axis.to_pix(x), y_axis.to_pix(y)
            if px is not None and py is not None:
                pts.append((px, py))
        if len(pts) >= 2:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>'
            )
        # Legend entry.
        ly = MARGIN_T + 14 + i * 16
        lx = WIDTH - MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}">{_esc(curve.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(fig: FigureData, path: Union[str, Path]) -> Path:
    """Render and write one figure's SVG."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_svg(fig))
    return path


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
