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

_CHART_SIZE, _HEATMAP_SIZE = (720, 480), (640, 600)  # width, height in px
_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 30.0
_MARGIN_B = 46.0

MAX_HEATMAP_CELLS = 121
# vertices or bars per chart series; longer series are drawn at a stride
MAX_CHART_POINTS = 1024

# a heatmap cell or colour bar step, a rect filled with a 0xRRGGBB integer,
# in two parts: a column's x, ending in the '\0' that a row's y, width and
# height replace, and that row part, ending in the fill
_CELL_HEAD = '<rect x="%.2f" y="\0'
_CELL_TAIL = '%.2f" width="%.2f" height="%.2f" fill="#%%06x"/>'


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


class _Canvas:
    def __init__(self, width, height, prov=None):
        self.width = float(width)
        self.height = float(height)
        self.parts = [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (width, height, width, height),
            '<rect width="%d" height="%d" fill="#ffffff"/>' % (width, height),
        ]
        if prov is not None:
            self.parts.insert(1, "<desc>provenance: %s</desc>"
                              % _esc(canonical_json(prov)))

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

    def cells(self, xs, ys, width, height, fills):
        """One rect per cell, fills[row, col], at the 1-D `xs` and `ys`,
        with each x, each row's y, width and height formatted once; only
        the fills are formatted per cell, one part per row."""
        row = "\n".join([_CELL_HEAD] * len(xs)) % tuple(xs.tolist())
        size = (float(width), float(height))
        for y, row_fills in zip(ys.tolist(), fills.tolist()):
            self.parts.append(row.replace("\0", _CELL_TAIL % (y, *size))
                              % tuple(row_fills))

    def path(self, xs, ys, stroke, width=1.5):
        if len(xs) == 0:
            return
        vertices = np.column_stack([_px(xs), _px(ys)]).ravel().tolist()
        d = ("M%.2f,%.2f" + " L%.2f,%.2f" * (len(xs) - 1)) % tuple(vertices)
        self.parts.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="%.2f"/>'
            % (d, stroke, _px(width)))

    def text(self, x, y, content, size=11, anchor="start", rotate=None):
        x, y = _px([x, y])
        extra = ""
        if rotate is not None:
            extra = ' transform="rotate(%.2f %.2f %.2f)"' % (_px(rotate), x, y)
        self.parts.append(
            '<text x="%.2f" y="%.2f" font-family="sans-serif" '
            'font-size="%.2f" text-anchor="%s" fill="#333333"%s>%s</text>'
            % (x, y, _px(size), anchor, extra, _esc(content)))

    def write(self, path):
        """The document, written to `path` one part at a time."""
        with whole_file(path) as fh:
            fh.writelines((p + "\n").encode() for p in self.parts + ["</svg>"])


def _frame(canvas, right, xlo, xhi, ylo, yhi, grid=False):
    """The ticks, tick labels and axis lines of the plot box from the
    margins to `right`, with grid lines where `grid`. Returns the maps from
    data to pixels; an axis with hi <= lo maps everything to its low
    edge, and its five ticks run from lo to lo + 1."""
    left, top, bottom = _MARGIN_L, _MARGIN_T, canvas.height - _MARGIN_B

    def ticks(lo, hi):
        return np.linspace(lo, hi if hi > lo else lo + 1.0, 5)

    def frac(v, lo, hi):
        return (v - lo) / (hi - lo) if hi > lo else 0.0 * v

    def to_x(v):
        return left + frac(v, xlo, xhi) * (right - left)

    def to_y(v):
        return bottom - frac(v, ylo, yhi) * (bottom - top)

    for tick in ticks(xlo, xhi):
        px = to_x(tick)
        if grid:
            canvas.line(px, bottom, px, top, "#e0e0e0", 0.5)
        canvas.line(px, bottom, px, bottom + 4, "#333333", 1.0)
        canvas.text(px, bottom + 16, _fmt_tick(tick), anchor="middle")
    for tick in ticks(ylo, yhi):
        py = to_y(tick)
        if grid:
            canvas.line(left, py, right, py, "#e0e0e0", 0.5)
        canvas.line(left - 4, py, left, py, "#333333", 1.0)
        canvas.text(left - 7, py + 3.5, _fmt_tick(tick), anchor="end")
    canvas.line(left, bottom, right, bottom, "#333333", 1.0)
    canvas.line(left, bottom, left, top, "#333333", 1.0)
    return to_x, to_y


def _labels(canvas, title, xlabel, ylabel, xlabel_x):
    """The title, the x label centred at `xlabel_x` and the y label."""
    if title:
        canvas.text(canvas.width / 2.0, 18, title, size=13, anchor="middle")
    if xlabel:
        canvas.text(xlabel_x, canvas.height - 10, xlabel, anchor="middle")
    if ylabel:
        canvas.text(16, (_MARGIN_T + canvas.height - _MARGIN_B) / 2.0,
                    ylabel, anchor="middle", rotate=-90)


def _strided(values, cap=MAX_CHART_POINTS):
    """`values` at the stride that leaves at most `cap` of them."""
    values = np.asarray(values, dtype=float)
    return values[::max(1, int(np.ceil(len(values) / cap)))]


def svg_chart(path, series, title="", xlabel="", ylabel="", prov=None):
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

    canvas = _Canvas(*_CHART_SIZE, prov)
    to_x, to_y = _frame(canvas, canvas.width - _MARGIN_R, xlo, xhi, ylo,
                        yhi, grid=True)
    _labels(canvas, title, xlabel, ylabel, canvas.width / 2.0)

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

    legend_x = canvas.width - _MARGIN_R - 10.0
    legend_y = _MARGIN_T + 8.0
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        y_pos = legend_y + 16.0 * idx
        canvas.line(legend_x - 28, y_pos - 3.5, legend_x - 10, y_pos - 3.5, color, 3.0)
        canvas.text(legend_x - 34, y_pos, s["label"], anchor="end")
    canvas.write(path)


def svg_heatmap(path, x, y, values, title="", xlabel="x", ylabel="y",
                prov=None):
    """Rectangular heatmap of values[iy, ix] over grid vectors x, y, drawn
    at the stride that keeps each axis within MAX_HEATMAP_CELLS cells.
    Each column's x and each row's y is formatted once; only the cell
    fills are formatted per cell."""
    x = _strided(x, MAX_HEATMAP_CELLS)
    y = _strided(y, MAX_HEATMAP_CELLS)
    values = _strided(_strided(values, MAX_HEATMAP_CELLS).T,
                      MAX_HEATMAP_CELLS).T

    vmax = float(values.max())
    vmin = float(min(values.min(), 0.0))
    span = vmax - vmin if vmax > vmin else 1.0

    canvas = _Canvas(*_HEATMAP_SIZE, prov)
    left, right = _MARGIN_L, canvas.width - _MARGIN_R - 56.0
    top, bottom = _MARGIN_T, canvas.height - _MARGIN_B
    cell_w = (right - left) / len(x)
    cell_h = (bottom - top) / len(y)
    # y grid ascends upward while pixels ascend downward
    canvas.cells(_px(left + np.arange(len(x)) * cell_w),
                 _px(bottom - (np.arange(len(y)) + 1) * cell_h),
                 _px(cell_w + 0.01), _px(cell_h + 0.01),
                 _colors((values - vmin) / span))
    _frame(canvas, right, float(x[0]), float(x[-1]), float(y[0]),
           float(y[-1]))

    # the colour bar: one column of 64 steps
    bar_x, bar_w, steps = right + 14.0, 14.0, 64
    k = np.arange(steps)
    canvas.cells(_px([bar_x]), _px(bottom - (k + 1) / steps * (bottom - top)),
                 _px(bar_w), _px((bottom - top) / steps + 0.01),
                 _colors(k / (steps - 1.0))[:, None])
    for frac in (0.0, 0.5, 1.0):
        py = bottom - frac * (bottom - top)
        canvas.text(bar_x + bar_w + 4, py + 3.5, _fmt_tick(vmin + frac * span))

    _labels(canvas, title, xlabel, ylabel, (left + right) / 2.0)
    canvas.write(path)
