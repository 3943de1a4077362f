"""Minimal deterministic SVG charts.

Hand-rolled rather than delegated to a plotting library so the output is a
pure function of the data: fixed palette, fixed layout, pixel coordinates
rounded to 1/100 px. Two chart types cover everything the command line
needs: overlaid line/bar series and a rectangular heatmap.
"""

import numpy as np

from .io import canonical_json

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# piecewise-linear approximation of a perceptually ordered colormap
_CMAP_ANCHORS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)

_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 30.0
_MARGIN_B = 46.0

MAX_HEATMAP_CELLS = 121
# vertices or bars per chart series; longer series are drawn at a stride
MAX_CHART_POINTS = 1024


def _px(v):
    # fixed two-decimal pixels keep the files byte-stable across platforms
    return "%.2f" % (round(float(v) * 100.0) / 100.0)


def _esc(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _fmt_tick(v):
    if v == 0:
        return "0"
    return "%.3g" % v


def _color_at(t):
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_CMAP_ANCHORS[:-1], _CMAP_ANCHORS[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _CMAP_ANCHORS[-1][1]


def _axis_ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


class _Canvas:
    def __init__(self, width, height):
        self.width = float(width)
        self.height = float(height)
        self.parts = [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (width, height, width, height),
            '<rect width="%d" height="%d" fill="#ffffff"/>' % (width, height),
        ]

    def desc(self, text):
        self.parts.insert(1, "<desc>%s</desc>" % _esc(text))

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
            'stroke-width="%s"%s/>'
            % (_px(x1), _px(y1), _px(x2), _px(y2), stroke, _px(width), extra)
        )

    def rect(self, x, y, w, h, fill, opacity=None):
        extra = ' fill-opacity="%s"' % _px(opacity) if opacity is not None else ""
        self.parts.append(
            '<rect x="%s" y="%s" width="%s" height="%s" fill="%s"%s/>'
            % (_px(x), _px(y), _px(w), _px(h), fill, extra)
        )

    def path(self, points, stroke, width=1.5):
        if len(points) == 0:
            return
        cmds = ["M%s,%s" % (_px(points[0][0]), _px(points[0][1]))]
        for x, y in points[1:]:
            cmds.append("L%s,%s" % (_px(x), _px(y)))
        self.parts.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="%s"/>'
            % (" ".join(cmds), stroke, _px(width))
        )

    def text(self, x, y, content, size=11, anchor="start", rotate=None, fill="#333333"):
        extra = ""
        if rotate is not None:
            extra = ' transform="rotate(%s %s %s)"' % (_px(rotate), _px(x), _px(y))
        self.parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="%s" '
            'text-anchor="%s" fill="%s"%s>%s</text>'
            % (_px(x), _px(y), _px(size), anchor, fill, extra, _esc(content))
        )

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _frame_axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, title):
    left, right = _MARGIN_L, canvas.width - _MARGIN_R
    top, bottom = _MARGIN_T, canvas.height - _MARGIN_B

    def to_x(v):
        return left + (v - xlo) / (xhi - xlo) * (right - left)

    def to_y(v):
        return bottom - (v - ylo) / (yhi - ylo) * (bottom - top)

    for tick in _axis_ticks(xlo, xhi):
        px = to_x(tick)
        canvas.line(px, bottom, px, top, "#e0e0e0", 0.5)
        canvas.line(px, bottom, px, bottom + 4, "#333333", 1.0)
        canvas.text(px, bottom + 16, _fmt_tick(tick), anchor="middle")
    for tick in _axis_ticks(ylo, yhi):
        py = to_y(tick)
        canvas.line(left, py, right, py, "#e0e0e0", 0.5)
        canvas.line(left - 4, py, left, py, "#333333", 1.0)
        canvas.text(left - 7, py + 3.5, _fmt_tick(tick), anchor="end")
    canvas.line(left, bottom, right, bottom, "#333333", 1.0)
    canvas.line(left, bottom, left, top, "#333333", 1.0)
    if title:
        canvas.text(canvas.width / 2.0, 18, title, size=13, anchor="middle")
    if xlabel:
        canvas.text(canvas.width / 2.0, canvas.height - 10, xlabel, anchor="middle")
    if ylabel:
        canvas.text(16, (top + bottom) / 2.0, ylabel, anchor="middle", rotate=-90)
    return to_x, to_y


def _strided(values):
    values = np.asarray(values, dtype=float)
    return values[::max(1, int(np.ceil(len(values) / MAX_CHART_POINTS)))]


def svg_chart(path, series, title="", xlabel="", ylabel="",
              width=720, height=480, prov=None):
    """Overlay of line and bar series.

    series: iterable of dicts with keys "label", "x", "y" and optional
    "style" ("line" default, or "bar"). Bars are drawn first so lines stay
    visible on top of histogram backgrounds. A series longer than
    MAX_CHART_POINTS is drawn at the stride that brings it under the cap.
    """
    series = [dict(s, x=_strided(s["x"]), y=_strided(s["y"]))
              for s in series]
    xs = np.concatenate([s["x"] for s in series])
    ys = np.concatenate([s["y"] for s in series])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(ys.min()), 0.0)
    yhi = float(ys.max())
    if yhi <= ylo:
        yhi = ylo + 1.0
    yhi += 0.06 * (yhi - ylo)

    canvas = _Canvas(width, height)
    if prov is not None:
        canvas.desc("provenance: " + canonical_json(prov))
    to_x, to_y = _frame_axes(canvas, xlo, xhi, ylo, yhi, xlabel, ylabel, title)

    order = sorted(range(len(series)),
                   key=lambda i: 0 if series[i].get("style") == "bar" else 1)
    for idx in order:
        s = series[idx]
        color = PALETTE[idx % len(PALETTE)]
        x, y = s["x"], s["y"]
        if s.get("style") == "bar":
            if len(x) > 1:
                half = 0.5 * float(np.min(np.diff(x)))
            else:
                half = 0.5
            base = to_y(max(ylo, 0.0))
            for xv, yv in zip(x, y):
                top_px = to_y(yv)
                canvas.rect(to_x(xv - half), min(top_px, base),
                            to_x(xv + half) - to_x(xv - half),
                            abs(base - top_px), color, opacity=0.35)
        else:
            canvas.path([(to_x(xv), to_y(yv)) for xv, yv in zip(x, y)], color)

    legend_x = width - _MARGIN_R - 10.0
    legend_y = _MARGIN_T + 8.0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y_pos = legend_y + 16.0 * idx
        canvas.line(legend_x - 28, y_pos - 3.5, legend_x - 10, y_pos - 3.5, color, 3.0)
        canvas.text(legend_x - 34, y_pos, s["label"], anchor="end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canvas.render())


def svg_heatmap(path, x, y, values, title="", xlabel="x", ylabel="y",
                width=640, height=600, prov=None):
    """Rectangular heatmap of values[iy, ix] over grid vectors x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    sx = max(1, int(np.ceil(len(x) / MAX_HEATMAP_CELLS)))
    sy = max(1, int(np.ceil(len(y) / MAX_HEATMAP_CELLS)))
    x = x[::sx]
    y = y[::sy]
    values = values[::sy, ::sx]

    vmax = float(values.max())
    vmin = float(min(values.min(), 0.0))
    span = vmax - vmin if vmax > vmin else 1.0

    canvas = _Canvas(width, height)
    if prov is not None:
        canvas.desc("provenance: " + canonical_json(prov))
    left, right = _MARGIN_L, width - _MARGIN_R - 56.0
    top, bottom = _MARGIN_T, height - _MARGIN_B
    cell_w = (right - left) / len(x)
    cell_h = (bottom - top) / len(y)
    for iy in range(len(y)):
        # y grid ascends upward while pixels ascend downward
        py = bottom - (iy + 1) * cell_h
        for ix in range(len(x)):
            canvas.rect(left + ix * cell_w, py, cell_w + 0.01, cell_h + 0.01,
                        _color_at((values[iy, ix] - vmin) / span))

    for tick in _axis_ticks(float(x[0]), float(x[-1])):
        frac = (tick - x[0]) / (x[-1] - x[0]) if x[-1] > x[0] else 0.0
        px = left + frac * (right - left)
        canvas.line(px, bottom, px, bottom + 4, "#333333", 1.0)
        canvas.text(px, bottom + 16, _fmt_tick(tick), anchor="middle")
    for tick in _axis_ticks(float(y[0]), float(y[-1])):
        frac = (tick - y[0]) / (y[-1] - y[0]) if y[-1] > y[0] else 0.0
        py = bottom - frac * (bottom - top)
        canvas.line(left - 4, py, left, py, "#333333", 1.0)
        canvas.text(left - 7, py + 3.5, _fmt_tick(tick), anchor="end")
    canvas.line(left, bottom, right, bottom, "#333333", 1.0)
    canvas.line(left, bottom, left, top, "#333333", 1.0)

    bar_x = right + 14.0
    bar_w = 14.0
    steps = 64
    for k in range(steps):
        frac = k / (steps - 1.0)
        py = bottom - (k + 1) / steps * (bottom - top)
        canvas.rect(bar_x, py, bar_w, (bottom - top) / steps + 0.01, _color_at(frac))
    for frac in (0.0, 0.5, 1.0):
        py = bottom - frac * (bottom - top)
        canvas.text(bar_x + bar_w + 4, py + 3.5, _fmt_tick(vmin + frac * span))

    if title:
        canvas.text(width / 2.0, 18, title, size=13, anchor="middle")
    if xlabel:
        canvas.text((left + right) / 2.0, height - 10, xlabel, anchor="middle")
    if ylabel:
        canvas.text(16, (top + bottom) / 2.0, ylabel, anchor="middle", rotate=-90)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canvas.render())
