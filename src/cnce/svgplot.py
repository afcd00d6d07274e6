"""Minimal deterministic SVG writer for log-log charts.

No plotting dependency: polylines, text and decade ticks are emitted
directly, with fixed coordinate formatting so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from itertools import groupby

WIDTH, HEIGHT = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 24, 46, 58
_PLOT_W, _PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

# one colour per (method, kappa) group: 4 methods x 4 kappa draw 16 groups
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
           "#e377c2", "#bcbd22", "#393b79", "#637939",
           "#8c6d31", "#843c39", "#7b4173", "#000000")

_GRID = 'stroke="#dddddd" stroke-width="1"'
_DASH = ' stroke-dasharray="6,4"'


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple
    color: str
    dashed: bool = False
    in_legend: bool = True


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _decades(lo: float, hi: float) -> list:
    a = math.floor(lo + 1e-9)
    b = max(math.ceil(hi - 1e-9), a + 1)
    return list(range(a, b + 1))


def _log_points(s: Series) -> list:
    """(log10 x, log10 y) of each point of s whose coordinates are both
    positive and finite: the points a chart spans its axes with and draws."""
    return [(math.log10(x), math.log10(y)) for x, y in zip(s.xs, s.ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)]


def _text(x, y, body, size=12, anchor="middle", transform=None) -> str:
    """<text> of body, escaped; anchor None writes no text-anchor."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{escape(str(body), quote=False)}</text>')


def _line(x1, y1, x2, y2, stroke: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'


def _stroke(s: Series) -> str:
    return f'stroke="{s.color}" stroke-width="1.8"' + (_DASH if s.dashed else "")


def render_loglog(series, title: str, xlabel: str, ylabel: str) -> str:
    """A standalone SVG 1.1 document: solid/dashed polylines on decade grids.

    Series with no positive finite points contribute nothing but legends;
    with no series at all the axes default to sensible decade ranges.
    """
    logs = [_log_points(s) for s in series]
    pts = [p for ps in logs for p in ps]
    spans = zip(*pts) if pts else ((2, 5), (-4, 0))
    x_dec, y_dec = (_decades(min(v), max(v)) for v in spans)

    mid_y = MARGIN_T + _PLOT_H // 2

    def px(logx):
        return MARGIN_L + (logx - x_dec[0]) / (x_dec[-1] - x_dec[0]) * _PLOT_W

    def py(logy):
        return MARGIN_T + (y_dec[-1] - logy) / (y_dec[-1] - y_dec[0]) * _PLOT_H

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(WIDTH // 2, 26, title, 16),
    ]
    for d in x_dec:
        x = _fmt(px(d))
        out += [_line(x, MARGIN_T, x, HEIGHT - MARGIN_B, _GRID),
                _text(x, HEIGHT - MARGIN_B + 18, f"1e{d}")]
    for d in y_dec:
        y = py(d)
        out += [_line(MARGIN_L, _fmt(y), WIDTH - MARGIN_R, _fmt(y), _GRID),
                _text(MARGIN_L - 6, _fmt(y + 4), f"1e{d}", anchor="end")]
    out += [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>',
        _text(MARGIN_L + _PLOT_W // 2, HEIGHT - 12, xlabel, 13),
        _text(20, mid_y, ylabel, 13, transform=f"rotate(-90 20 {mid_y})"),
    ]

    for s, ps in zip(series, logs):
        if not ps:
            continue
        xy = [(_fmt(px(x)), _fmt(py(y))) for x, y in ps]
        coords = " ".join(f"{x},{y}" for x, y in xy)
        out.append(f'<polyline points="{coords}" fill="none" {_stroke(s)}/>')
        out += [f'<circle cx="{x}" cy="{y}" r="2.4" fill="{s.color}"/>' for x, y in xy]

    legend = [s for s in series if s.in_legend]
    if legend:
        lx = WIDTH - MARGIN_R - 190
        ly = MARGIN_T + 10
        out.append(
            f'<rect x="{lx}" y="{ly}" width="180" height="{16 * len(legend) + 10}" '
            f'fill="#ffffff" fill-opacity="0.85" stroke="#999999" stroke-width="0.8"/>'
        )
        for k, s in enumerate(legend):
            yy = ly + 16 * k + 14
            out += [_line(lx + 8, yy - 4, lx + 34, yy - 4, _stroke(s)),
                    _text(lx + 40, yy, s.label, anchor=None)]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def chart_series_for_model(summaries) -> list:
    """Series for one model's quantile summaries: per (method, kappa) a solid
    median line plus dashed 0.1/0.9 quantile lines of the squared error
    against N."""
    rows = sorted(summaries, key=lambda s: (s.method, s.kappa, s.n))
    groups = groupby(rows, key=lambda s: (s.method, s.kappa))
    series = []
    for idx, ((method, kappa), cell) in enumerate(groups):
        color = PALETTE[idx % len(PALETTE)]
        cell = tuple(cell)
        xs = tuple(r.n for r in cell)
        for q in ("median", "q10", "q90"):
            median = q == "median"
            series.append(Series(
                label=f"{method} k={kappa}" + ("" if median else f" {q}"),
                xs=xs, ys=tuple(getattr(r, q)**2 for r in cell), color=color,
                dashed=not median, in_legend=median,
            ))
    return series
