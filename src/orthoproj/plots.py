"""Hand-emitted static SVG charts.

CSV is the canonical output format; these charts are a dependency-free
convenience for eyeballing runs. Only what the experiment surfaces need:
a multi-series line chart over steps (or categorical x positions) and a
labelled scatter.
"""

from __future__ import annotations

__all__ = ["line_chart", "scatter_chart"]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 160, 36, 48  # extra right margin hosts the legend
_PALETTE = ("#1f6fb2", "#d1495b", "#3e8e5a", "#8a5fbf", "#c78a2d", "#4a4a4a")


def escape(text: str) -> str:
    """Escape '&', '>' and '<', in that order, for SVG text content (what
    xml.sax.saxutils.escape does, without importing its network stack)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, n: int = 5):
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)], lo, hi


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _frame(title: str, xlabel: str, ylabel: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" text-anchor="middle">{escape(xlabel)}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{escape(ylabel)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(x_lo, x_hi, y_lo, y_hi, x_tick_labels=None):
    x_ticks, x_lo, x_hi = _ticks(x_lo, x_hi) if x_tick_labels is None else (None, x_lo, x_hi)
    y_ticks, y_lo, y_hi = _ticks(y_lo, y_hi)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
             f'height="{_H - _MT - _MB}" fill="none" stroke="#999"/>']
    if x_tick_labels is None:
        for t in x_ticks:
            parts.append(f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
                         f'y2="{_H - _MB + 4}" stroke="#999"/>')
            parts.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 16}" '
                         f'text-anchor="middle">{_fmt(t)}</text>')
    else:
        for i, label in enumerate(x_tick_labels):
            xpos = px(i)
            parts.append(f'<line x1="{xpos:.1f}" y1="{_H - _MB}" x2="{xpos:.1f}" '
                         f'y2="{_H - _MB + 4}" stroke="#999"/>')
            parts.append(f'<text x="{xpos:.1f}" y="{_H - _MB + 16}" '
                         f'text-anchor="middle">{escape(label)}</text>')
    for t in y_ticks:
        parts.append(f'<line x1="{_ML - 4}" y1="{py(t):.1f}" x2="{_ML}" '
                     f'y2="{py(t):.1f}" stroke="#999"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(t):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle">{_fmt(t)}</text>')
    return parts, px, py


def line_chart(x, series: dict[str, list[float]], title: str,
               xlabel: str, ylabel: str, categorical: bool = False) -> str:
    """Multi-series line chart. With categorical=True, x holds tick labels
    and points are spaced evenly."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    ys = [v for vals in series.values() for v in vals]
    if categorical:
        labels = [str(v) for v in x]
        xs = list(range(len(labels)))
        body, px, py = _axes(0, max(len(labels) - 1, 1), min(ys), max(ys), labels)
    else:
        xs = list(x)
        body, px, py = _axes(min(xs), max(xs), min(ys), max(ys))
    for idx, (name, vals) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(a):.1f},{py(b):.1f}" for a, b in zip(xs, vals))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * idx
        body.append(f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 28}" '
                    f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{_W - _MR + 32}" y="{ly + 4}">{escape(name)}</text>')
    return _frame(title, xlabel, ylabel, body)


def scatter_chart(points: list[tuple[float, float, str]], title: str,
                  xlabel: str, ylabel: str) -> str:
    """Labelled scatter; points are (x, y, label) triples."""
    if not points:
        raise ValueError("scatter_chart needs at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    body, px, py = _axes(min(xs), max(xs), min(ys), max(ys))
    for idx, (x, y, label) in enumerate(points):
        color = _PALETTE[idx % len(_PALETTE)]
        body.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="5" fill="{color}"/>')
        body.append(f'<text x="{px(x) + 8:.1f}" y="{py(y) - 6:.1f}">{escape(label)}</text>')
    return _frame(title, xlabel, ylabel, body)
