"""Minimal self-contained SVG scatter plots of labeled 2-D points."""

from __future__ import annotations

import numpy as np

PALETTE = [
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080",
    "#e6beff", "#9a6324", "#fffac8", "#800000", "#aaffc3",
]
ANOMALY_COLOR = "#444444"  # anomalies rendered dark gray
SIZE = 640      # width and height in pixels
RADIUS = 2.5    # point radius in pixels


def scatter_svg(coords, labels, path):
    """Write a scatter of ``coords`` colored by ``labels`` (-1 dark gray)."""
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    margin = 0.05 * SIZE
    scale = (SIZE - 2 * margin) / span

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for (x, y), lab in zip(coords, labels):
        px = margin + (x - lo[0]) * scale[0]
        py = SIZE - margin - (y - lo[1]) * scale[1]  # flip y for screen coords
        color = ANOMALY_COLOR if lab < 0 else PALETTE[int(lab) % len(PALETTE)]
        r = RADIUS * (0.75 if lab < 0 else 1.0)
        lines.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
