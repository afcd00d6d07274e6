"""Minimal deterministic SVG writer for log-log charts.

No plotting dependency: polylines, text and decade ticks are emitted
directly, with fixed coordinate formatting so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 78, 24, 46, 58

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


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
    b = math.ceil(hi - 1e-9)
    if b <= a:
        b = a + 1
    return list(range(a, b + 1))


def _finite_log_points(series):
    for s in series:
        for x, y in zip(s.xs, s.ys):
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y):
                yield math.log10(x), math.log10(y)


def render_loglog(series, title: str, xlabel: str, ylabel: str) -> str:
    """A standalone SVG 1.1 document: solid/dashed polylines on decade grids.

    Series with no positive finite points contribute nothing but legends;
    with no series at all the axes default to sensible decade ranges.
    """
    pts = list(_finite_log_points(series))
    if pts:
        lx = [p[0] for p in pts]
        ly = [p[1] for p in pts]
        x_dec = _decades(min(lx), max(lx))
        y_dec = _decades(min(ly), max(ly))
    else:
        x_dec = _decades(2, 5)
        y_dec = _decades(-4, 0)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(logx):
        return MARGIN_L + (logx - x_dec[0]) / (x_dec[-1] - x_dec[0]) * plot_w

    def py(logy):
        return MARGIN_T + (y_dec[-1] - logy) / (y_dec[-1] - y_dec[0]) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="26" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>'
    )

    # grid + ticks
    for d in x_dec:
        x = px(d)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_T}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">1e{d}</text>'
        )
    for d in y_dec:
        y = py(d)
        out.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{d}</text>'
        )
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_T + plot_h / 2:.0f})">{_esc(ylabel)}</text>'
    )

    for s in series:
        pts = [
            (px(math.log10(x)), py(math.log10(y)))
            for x, y in zip(s.xs, s.ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        if not pts:
            continue
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.4" fill="{s.color}"/>'
            )

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
            dash = ' stroke-dasharray="6,4"' if s.dashed else ""
            out.append(
                f'<line x1="{lx + 8}" y1="{yy - 4}" x2="{lx + 34}" y2="{yy - 4}" '
                f'stroke="{s.color}" stroke-width="1.8"{dash}/>'
            )
            out.append(
                f'<text x="{lx + 40}" y="{yy}" font-family="sans-serif" '
                f'font-size="12">{_esc(s.label)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def chart_series_for_model(summaries) -> list:
    """Series for one model's quantile summaries: per (method, kappa) a solid
    median line plus dashed 0.1/0.9 quantile lines of the squared error
    against N."""
    cells = {}
    for s in summaries:
        cells.setdefault((s.method, s.kappa), []).append(s)
    series = []
    for idx, key in enumerate(sorted(cells)):
        method, kappa = key
        color = PALETTE[idx % len(PALETTE)]
        rows = sorted(cells[key], key=lambda s: s.n)
        xs = tuple(r.n for r in rows)
        series.append(Series(
            label=f"{method} k={kappa}",
            xs=xs, ys=tuple(r.median**2 for r in rows), color=color,
        ))
        series.append(Series(
            label=f"{method} k={kappa} q10",
            xs=xs, ys=tuple(r.q10**2 for r in rows), color=color,
            dashed=True, in_legend=False,
        ))
        series.append(Series(
            label=f"{method} k={kappa} q90",
            xs=xs, ys=tuple(r.q90**2 for r in rows), color=color,
            dashed=True, in_legend=False,
        ))
    return series
