"""Minimal SVG rendering of an oval configuration and its domains, drawn from the stacked vertices."""

from __future__ import annotations

import numpy as np

from .geometry import OvalConfiguration

__all__ = ["render_svg"]

# fixed palette, cycled by domain order; colorblind-friendly-ish
_PALETTE = [
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
    "#225555",
    "#663333",
]
_WIDTH = 480


def _ring_path(vertices: np.ndarray) -> str:
    coords = " L ".join(f"{x:.6g} {y:.6g}" for x, y in vertices)
    return f"M {coords} Z"


def render_svg(config: OvalConfiguration, parent: np.ndarray, areas: np.ndarray) -> str:
    """Render the domains, as ``build_nesting_forest`` and ``build_domains`` give them, as an SVG string.

    There is one domain per oval, ordered by oval id. Each domain is one
    even-odd filled path (outer ring plus hole rings), so nested regions
    show through their parents; oval boundaries are stroked on top and a
    legend lists domain ids with areas. Output is fully deterministic for
    a given configuration.
    """
    ordered = sorted(range(config.N), key=config.ids.__getitem__)
    bounds = config.starts.tolist()
    rings = [_ring_path(config.vertices[i:j]) for i, j in zip(bounds, bounds[1:])]
    (xmin, ymin), (xmax, ymax) = config.vertices.min(axis=0), config.vertices.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * span
    legend_w = 0.55 * span
    vb = (
        xmin - margin,
        ymin - margin,
        (xmax - xmin) + 2 * margin + legend_w,
        (ymax - ymin) + 2 * margin,
    )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'viewBox="{vb[0]:.6g} {vb[1]:.6g} {vb[2]:.6g} {vb[3]:.6g}">',
        # flip y so the math orientation (y up) renders upright
        f'<g transform="translate(0 {ymin + ymax:.6g}) scale(1 -1)">',
    ]
    for i, k in enumerate(ordered):
        path = " ".join([rings[k]] + [rings[h] for h in np.flatnonzero(parent == k)])
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(f'<path d="{path}" fill="{color}" fill-opacity="0.45" fill-rule="evenodd" stroke="none"/>')
    for k in ordered:
        lines.append(f'<path d="{rings[k]}" fill="none" stroke="#333333" stroke-width="{0.004 * span:.6g}"/>')
    lines.append("</g>")

    fs = 0.045 * span
    tx = xmax + 2 * margin
    for i, k in enumerate(ordered):
        ty = ymin + margin + (i + 1) * 1.4 * fs
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'<rect x="{tx:.6g}" y="{ty - 0.8 * fs:.6g}" width="{fs:.6g}" '
            f'height="{fs:.6g}" fill="{color}" fill-opacity="0.45"/>'
        )
        lines.append(
            f'<text x="{tx + 1.5 * fs:.6g}" y="{ty:.6g}" font-size="{fs:.6g}" '
            f'font-family="sans-serif">domain {config.ids[k]}: area {areas[k]:.6g}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
