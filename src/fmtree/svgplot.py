"""Static SVG rendering of residual boxplots (no scripting, one box per model)."""

from __future__ import annotations

from typing import Mapping

from .evaluation import BoxplotSummary

_WIDTH_PER_BOX = 110
_MARGIN_LEFT = 80
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 50
_PLOT_HEIGHT = 320
_BOX_WIDTH = 46
_TITLE = "Absolute residuals by model"
_Y_LABEL = "absolute residual (PH)"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_boxplot_svg(summaries: Mapping[str, BoxplotSummary]) -> str:
    """Render one whiskered box per entry; outliers become dots."""
    if not summaries:
        raise ValueError("nothing to plot")
    names = list(summaries)
    width = _MARGIN_LEFT + _WIDTH_PER_BOX * len(names) + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PLOT_HEIGHT + _MARGIN_BOTTOM

    top = 0.0
    for s in summaries.values():
        top = max(top, s.whisker_high, s.maximum)
    top = top * 1.05 if top > 0 else 1.0

    def y_pixel(value: float) -> float:
        return _MARGIN_TOP + _PLOT_HEIGHT * (1.0 - value / top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_TITLE}</text>',
        f'<text x="16" y="{_MARGIN_TOP + _PLOT_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT_HEIGHT / 2:.1f})">{_Y_LABEL}</text>',
    ]
    axis_x = _MARGIN_LEFT - 14
    parts.append(
        f'<line x1="{axis_x}" y1="{_MARGIN_TOP}" x2="{axis_x}" '
        f'y2="{_MARGIN_TOP + _PLOT_HEIGHT}" stroke="black"/>'
    )
    for i in range(6):
        value = top * i / 5.0
        py = y_pixel(value)
        parts.append(
            f'<line x1="{axis_x - 4}" y1="{_fmt(py)}" x2="{axis_x}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{axis_x - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.3g}</text>'
        )

    for i, name in enumerate(names):
        s = summaries[name]
        cx = _MARGIN_LEFT + _WIDTH_PER_BOX * (i + 0.5)
        x0 = cx - _BOX_WIDTH / 2
        x1 = cx + _BOX_WIDTH / 2
        q1y, q3y = y_pixel(s.q1), y_pixel(s.q3)
        parts += [
            f'<line x1="{_fmt(cx)}" y1="{_fmt(y_pixel(s.whisker_high))}" '
            f'x2="{_fmt(cx)}" y2="{_fmt(q3y)}" stroke="black"/>',
            f'<line x1="{_fmt(cx)}" y1="{_fmt(q1y)}" '
            f'x2="{_fmt(cx)}" y2="{_fmt(y_pixel(s.whisker_low))}" stroke="black"/>',
            f'<line x1="{_fmt(cx - 12)}" y1="{_fmt(y_pixel(s.whisker_high))}" '
            f'x2="{_fmt(cx + 12)}" y2="{_fmt(y_pixel(s.whisker_high))}" stroke="black"/>',
            f'<line x1="{_fmt(cx - 12)}" y1="{_fmt(y_pixel(s.whisker_low))}" '
            f'x2="{_fmt(cx + 12)}" y2="{_fmt(y_pixel(s.whisker_low))}" stroke="black"/>',
            f'<rect x="{_fmt(x0)}" y="{_fmt(q3y)}" width="{_BOX_WIDTH}" '
            f'height="{_fmt(max(q1y - q3y, 0.5))}" fill="#cfe2f3" stroke="black"/>',
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y_pixel(s.median))}" '
            f'x2="{_fmt(x1)}" y2="{_fmt(y_pixel(s.median))}" stroke="black" stroke-width="2"/>',
        ]
        for value in s.outliers:
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(y_pixel(value))}" r="3" '
                f'fill="none" stroke="black"/>'
            )
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_MARGIN_TOP + _PLOT_HEIGHT + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
