"""Minimal deterministic SVG charts.

Hand-rolled rather than delegated to a plotting library so the output is a
pure function of the data: fixed palette, fixed layout, pixel coordinates
rounded to 1/100 px. Two chart types cover everything the command line
needs: overlaid line/bar series and a rectangular heatmap. Cells, bars and
path vertices are computed as arrays, one %-format call per block.
"""

import itertools

import numpy as np

from .io import canonical_json, whole_file

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# piecewise-linear approximation of a perceptually ordered colormap: the
# colours at t = 0, 1/4, 1/2, 3/4, 1
_ANCHOR_T = np.linspace(0.0, 1.0, 5)
_ANCHOR_RGB = np.array([(68, 1, 84), (59, 82, 139), (33, 145, 140),
                        (94, 201, 98), (253, 231, 37)], dtype=float)

_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 30.0
_MARGIN_B = 46.0

MAX_HEATMAP_CELLS = 121
# vertices or bars per chart series; longer series are drawn at a stride
MAX_CHART_POINTS = 1024

# heatmap cell or colour bar step; the fill is a 0xRRGGBB integer
_MAP_RECT = '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#%06x"/>'


def _px(v):
    """Pixel values rounded to 1/100 px for a "%.2f" slot, exactly as
    round(v * 100) / 100 rounds them: half to even, and -0.0 becomes 0.0.
    Fixed two-decimal pixels keep the files byte-stable across platforms."""
    scaled = np.asarray(v, dtype=float) * 100.0
    if not np.all(np.isfinite(scaled)):
        raise ValueError("pixel coordinate is not finite")
    return (np.rint(scaled) + 0.0) / 100.0


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


def _colors(t):
    """Colormap fills at t (clamped to [0, 1], NaN drawn as 1) as 0xRRGGBB
    integers: each channel interpolated within t's anchor segment and
    rounded half to even."""
    t = np.clip(np.nan_to_num(np.asarray(t, dtype=float), nan=1.0), 0.0, 1.0)
    seg = np.searchsorted(_ANCHOR_T[1:], t)     # t0 < t <= t1
    t0, t1 = _ANCHOR_T[seg], _ANCHOR_T[seg + 1]
    c0, c1 = _ANCHOR_RGB[seg], _ANCHOR_RGB[seg + 1]
    w = ((t - t0) / (t1 - t0))[..., None]
    rgb = np.rint(c0 + w * (c1 - c0)).astype(np.int64)
    return rgb @ np.array([1 << 16, 1 << 8, 1])


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

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self.parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" '
            'stroke-width="%.2f"/>'
            % (*_px([x1, y1, x2, y2]), stroke, _px(width)))

    def rows(self, template, *columns):
        """One `template` element per row of the broadcast `columns`, in C
        order, formatted by a single %-format call. Float slots take `_px`
        values."""
        columns = [column.ravel().tolist() for column
                   in np.broadcast_arrays(*map(np.asarray, columns))]
        if columns[0]:
            self.parts.append("\n".join([template] * len(columns[0])) % tuple(
                itertools.chain.from_iterable(zip(*columns))))

    def path(self, xs, ys, stroke, width=1.5):
        if len(xs) == 0:
            return
        vertices = np.column_stack([_px(xs), _px(ys)]).ravel().tolist()
        d = ("M%.2f,%.2f" + " L%.2f,%.2f" * (len(xs) - 1)) % tuple(vertices)
        self.parts.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="%.2f"/>'
            % (d, stroke, _px(width)))

    def text(self, x, y, content, size=11, anchor="start", rotate=None, fill="#333333"):
        x, y = _px([x, y])
        extra = ""
        if rotate is not None:
            extra = ' transform="rotate(%.2f %.2f %.2f)"' % (_px(rotate), x, y)
        self.parts.append(
            '<text x="%.2f" y="%.2f" font-family="sans-serif" '
            'font-size="%.2f" text-anchor="%s" fill="%s"%s>%s</text>'
            % (x, y, _px(size), anchor, fill, extra, _esc(content)))

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
            top_px = to_y(y)
            left_px = to_x(x - half)
            canvas.rows('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                        'fill="%s" fill-opacity="0.35"/>',
                        _px(left_px), _px(np.minimum(top_px, base)),
                        _px(to_x(x + half) - left_px),
                        _px(np.abs(base - top_px)), color)
        else:
            canvas.path(to_x(x), to_y(y), color)

    legend_x = width - _MARGIN_R - 10.0
    legend_y = _MARGIN_T + 8.0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y_pos = legend_y + 16.0 * idx
        canvas.line(legend_x - 28, y_pos - 3.5, legend_x - 10, y_pos - 3.5, color, 3.0)
        canvas.text(legend_x - 34, y_pos, s["label"], anchor="end")
    with whole_file(path) as fh:
        fh.write(canvas.render().encode("utf-8"))


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
    # y grid ascends upward while pixels ascend downward
    canvas.rows(_MAP_RECT, _px(left + np.arange(len(x)) * cell_w),
                _px(bottom - (np.arange(len(y)) + 1) * cell_h)[:, None],
                _px(cell_w + 0.01), _px(cell_h + 0.01),
                _colors((values - vmin) / span))

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
    k = np.arange(steps)
    canvas.rows(_MAP_RECT, _px(bar_x),
                _px(bottom - (k + 1) / steps * (bottom - top)), _px(bar_w),
                _px((bottom - top) / steps + 0.01), _colors(k / (steps - 1.0)))
    for frac in (0.0, 0.5, 1.0):
        py = bottom - frac * (bottom - top)
        canvas.text(bar_x + bar_w + 4, py + 3.5, _fmt_tick(vmin + frac * span))

    if title:
        canvas.text(width / 2.0, 18, title, size=13, anchor="middle")
    if xlabel:
        canvas.text((left + right) / 2.0, height - 10, xlabel, anchor="middle")
    if ylabel:
        canvas.text(16, (top + bottom) / 2.0, ylabel, anchor="middle", rotate=-90)
    with whole_file(path) as fh:
        fh.write(canvas.render().encode("utf-8"))
