"""CSV/JSON export of regenerated figures."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Union

from .registry import FigureData


def write_csv(fig: FigureData, path: Union[str, Path]) -> Path:
    """Write one figure as a long-format CSV (curve, x, y).

    Curves carrying replication CI bands get two extra columns
    (``y_lo``/``y_hi``); band-free figures keep the historical 3-column
    layout byte for byte.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    banded = any(c.y_lo is not None and c.y_hi is not None
                 for c in fig.curves)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["curve", fig.xlabel, fig.ylabel]
        if banded:
            header += ["y_lo", "y_hi"]
        writer.writerow(header)
        for curve in fig.curves:
            has_band = curve.y_lo is not None and curve.y_hi is not None
            for i, (x, y) in enumerate(zip(curve.x, curve.y)):
                row = [curve.label, repr(x), repr(y)]
                if banded:
                    if has_band:
                        row += [repr(curve.y_lo[i]), repr(curve.y_hi[i])]
                    else:
                        row += ["", ""]
                writer.writerow(row)
    return path


def write_json(fig: FigureData, path: Union[str, Path]) -> Path:
    """Write one figure as JSON (all metadata included)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fig.to_dict(), indent=2))
    return path


def export_figures(
    figs: Iterable[FigureData],
    directory: Union[str, Path],
    svg: bool = True,
) -> list:
    """Write CSV + JSON (+ browser-viewable SVG) per figure."""
    from .svg_plot import write_svg

    directory = Path(directory)
    written = []
    for fig in figs:
        written.append(write_csv(fig, directory / f"{fig.fig_id}.csv"))
        written.append(write_json(fig, directory / f"{fig.fig_id}.json"))
        if svg:
            written.append(write_svg(fig, directory / f"{fig.fig_id}.svg"))
    return written
