"""Deterministic chart emission for the results dataset.

SVG output is plain text on a fixed 640x400 viewport with one polyline per
chart, so repeated runs produce identical bytes and diffs stay readable.
All coordinate arithmetic is done in Decimal.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Sequence

VIEW_W = 640
VIEW_H = 400
PLOT_LEFT = Decimal(60)
PLOT_RIGHT = Decimal(620)
PLOT_TOP = Decimal(30)
PLOT_BOTTOM = Decimal(350)
_CENT = Decimal("0.01")


def _x_positions(n: int) -> list[Decimal]:
    if n == 1:
        return [((PLOT_LEFT + PLOT_RIGHT) / 2).quantize(_CENT)]
    span = PLOT_RIGHT - PLOT_LEFT
    return [(PLOT_LEFT + span * i / (n - 1)).quantize(_CENT) for i in range(n)]


def _y_position(pct: Decimal) -> Decimal:
    scale = (PLOT_BOTTOM - PLOT_TOP) / Decimal(100)
    return (PLOT_BOTTOM - pct * scale).quantize(_CENT)


def svg_line_chart(title: str, rows: Sequence[tuple[int, Decimal]]) -> str:
    """A year-vs-percentage line chart as a standalone SVG document."""
    xs = _x_positions(len(rows))
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW_W}" height="{VIEW_H}" '
        f'viewBox="0 0 {VIEW_W} {VIEW_H}">',
        f'<title>{title}</title>',
        f'<text x="{VIEW_W // 2}" y="20" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_TOP}" x2="{PLOT_LEFT}" y2="{PLOT_BOTTOM}" stroke="black"/>',
        f'<line x1="{PLOT_LEFT}" y1="{PLOT_BOTTOM}" x2="{PLOT_RIGHT}" y2="{PLOT_BOTTOM}" stroke="black"/>',
        f'<text x="20" y="{(PLOT_TOP + PLOT_BOTTOM) / 2}" font-size="12" '
        f'transform="rotate(-90 20 {(PLOT_TOP + PLOT_BOTTOM) / 2})" text-anchor="middle">pass %</text>',
        f'<text x="{(PLOT_LEFT + PLOT_RIGHT) / 2}" y="390" text-anchor="middle" font-size="12">year</text>',
    ]
    for tick in range(0, 101, 20):
        y = _y_position(Decimal(tick))
        parts.append(
            f'<line x1="{PLOT_LEFT - 4}" y1="{y}" x2="{PLOT_LEFT}" y2="{y}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{PLOT_LEFT - 8}" y="{y}" text-anchor="end" font-size="10" '
            f'dominant-baseline="middle">{tick}</text>'
        )
    for x, (year, _) in zip(xs, rows):
        parts.append(
            f'<text x="{x}" y="{PLOT_BOTTOM + 16}" text-anchor="middle" font-size="10">{year}</text>'
        )
    points = " ".join(f"{x},{_y_position(pct)}" for x, (_, pct) in zip(xs, rows))
    parts.append(f'<polyline fill="none" stroke="steelblue" stroke-width="2" points="{points}"/>')
    for x, (_, pct) in zip(xs, rows):
        parts.append(f'<circle cx="{x}" cy="{_y_position(pct)}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


ASCII_WIDTH = 60


def ascii_chart(title: str, rows: Sequence[tuple[int, Decimal]]) -> list[str]:
    """A fixed-width horizontal bar chart, one line per year."""
    lines = [title]
    for year, pct in rows:
        bar = "#" * int(pct * ASCII_WIDTH / 100)
        lines.append(f"  {year} |{bar:<{ASCII_WIDTH}}| {pct:>6.2f}")
    return lines
