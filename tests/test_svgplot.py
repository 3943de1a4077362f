"""SVG writers against the scalar per-element formulas they vectorise.

The reference functions below are the per-cell and per-point writers the
array code replaced: each element formatted on its own, pixels rounded by
Python's round() and colours interpolated one cell at a time.
"""

import math

import numpy as np
import pytest

from vortexcorr import svgplot
from vortexcorr.svgplot import svg_chart, svg_heatmap


def _px_scalar(v):
    return "%.2f" % (round(float(v) * 100.0) / 100.0)


_CMAP_ANCHORS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)


def _color_at(t):
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_CMAP_ANCHORS[:-1], _CMAP_ANCHORS[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % _CMAP_ANCHORS[-1][1]


def _rect(x, y, w, h, fill, extra=""):
    return ('<rect x="%s" y="%s" width="%s" height="%s" fill="%s"%s/>'
            % (_px_scalar(x), _px_scalar(y), _px_scalar(w), _px_scalar(h),
               fill, extra))


def _heatmap_rects(x, y, values, width=640, height=600):
    """Cell and colour-bar rects of the scalar heatmap writer, in order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    sx = max(1, int(np.ceil(len(x) / svgplot.MAX_HEATMAP_CELLS)))
    sy = max(1, int(np.ceil(len(y) / svgplot.MAX_HEATMAP_CELLS)))
    x, y, values = x[::sx], y[::sy], values[::sy, ::sx]
    vmax = float(values.max())
    vmin = float(min(values.min(), 0.0))
    span = vmax - vmin if vmax > vmin else 1.0
    left, right = 64.0, width - 18.0 - 56.0
    top, bottom = 30.0, height - 46.0
    cell_w = (right - left) / len(x)
    cell_h = (bottom - top) / len(y)
    rects = []
    for iy in range(len(y)):
        py = bottom - (iy + 1) * cell_h
        for ix in range(len(x)):
            rects.append(_rect(left + ix * cell_w, py, cell_w + 0.01,
                               cell_h + 0.01,
                               _color_at((values[iy, ix] - vmin) / span)))
    steps = 64
    for k in range(steps):
        py = bottom - (k + 1) / steps * (bottom - top)
        rects.append(_rect(right + 14.0, py, 14.0,
                           (bottom - top) / steps + 0.01,
                           _color_at(k / (steps - 1.0))))
    return rects


def _chart_elements(series, width=720, height=480):
    """Bar rects and line paths of the scalar chart writer, in order."""
    series = [dict(s, x=svgplot._strided(s["x"]), y=svgplot._strided(s["y"]))
              for s in series]
    xs = np.concatenate([s["x"] for s in series])
    ys = np.concatenate([s["y"] for s in series])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(ys.min()), 0.0)
    yhi = float(ys.max())
    if yhi <= ylo:
        yhi = ylo + 1.0
    yhi += 0.06 * (yhi - ylo)
    left, right = 64.0, width - 18.0
    top, bottom = 30.0, height - 46.0

    def to_x(v):
        return left + (v - xlo) / (xhi - xlo) * (right - left)

    def to_y(v):
        return bottom - (v - ylo) / (yhi - ylo) * (bottom - top)

    elements = []
    order = sorted(range(len(series)),
                   key=lambda i: 0 if series[i].get("style") == "bar" else 1)
    for idx in order:
        s = series[idx]
        color = svgplot.PALETTE[idx % len(svgplot.PALETTE)]
        if s.get("style") == "bar":
            x = s["x"]
            half = 0.5 * float(np.min(np.diff(x))) if len(x) > 1 else 0.5
            base = to_y(max(ylo, 0.0))
            for xv, yv in zip(x, s["y"]):
                top_px = to_y(yv)
                elements.append(_rect(
                    to_x(xv - half), min(top_px, base),
                    to_x(xv + half) - to_x(xv - half), abs(base - top_px),
                    color, ' fill-opacity="%s"' % _px_scalar(0.35)))
        elif len(s["x"]):
            cmds = ["%s%s,%s" % ("L" if i else "M", _px_scalar(to_x(xv)),
                                 _px_scalar(to_y(yv)))
                    for i, (xv, yv) in enumerate(zip(s["x"], s["y"]))]
            elements.append(
                '<path d="%s" fill="none" stroke="%s" stroke-width="%s"/>'
                % (" ".join(cmds), color, _px_scalar(1.5)))
    return elements


def _lines(path, *prefixes):
    return [line for line in path.read_text().splitlines()
            if line.startswith(prefixes)]


def test_px_rounds_as_python_round():
    ties = [k / 1000.0 for k in range(-2005, 2006, 10)]     # x.xx5
    edges = [-0.0, 0.0, -0.004, -0.005, -0.0049999, 0.005, 0.015, 2.675,
             1.005, -1.005, 1e6 + 0.125, -1e6 - 0.375, 95.375, 64.125,
             1e13 + 0.5, -1e-300, 5e-324, 0.125, 0.375, -0.125]
    noise = np.random.default_rng(8).normal(scale=400.0, size=4000)
    values = np.concatenate([ties, edges, noise, np.round(noise, 3)])
    got = ["%.2f" % v for v in svgplot._px(values)]
    assert got == [_px_scalar(v) for v in values]
    assert "%.2f" % svgplot._px(-0.0) == "0.00"
    assert "%.2f" % svgplot._px(-0.004) == "0.00"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_px_refuses_what_round_refuses(bad):
    with pytest.raises((ValueError, OverflowError)):
        _px_scalar(bad)
    with pytest.raises(ValueError):
        svgplot._px([1.0, bad])


def test_colors_match_scalar_colormap():
    t = np.concatenate([
        [0.0, 0.25, 0.5, 0.75, 1.0, -0.0, math.nan, math.inf, -math.inf,
         -0.5, 1.5, 0.125, 0.375, 0.625, 0.875, np.nextafter(0.25, 1.0),
         np.nextafter(0.5, 0.0)],
        np.arange(64) / 63.0,
        np.random.default_rng(4).uniform(-0.1, 1.1, size=3000)])
    got = ["#%06x" % c for c in svgplot._colors(t).tolist()]
    assert got == [_color_at(v) for v in t]


_FIELDS = {
    "zeros": np.zeros((5, 7)),                        # span fallback
    "negative-constant": np.full((4, 4), -2.5),       # span fallback
    "negative-minimum": np.random.default_rng(1).normal(size=(32, 16)),
    # with 16 columns and 32 rows the cell edges fall on x.xx5 pixels
    "anchors": np.resize([0.0, 0.25, 0.5, 0.75, 1.0, -0.0], (32, 16)),
    "nan": np.where(np.eye(6, dtype=bool), math.nan, 1.0),
    "strided": np.random.default_rng(3).uniform(size=(250, 130)),
}


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_heatmap_cells_match_scalar_writer(tmp_path, name):
    values = _FIELDS[name]
    y = np.linspace(-1.0, 1.0, values.shape[0])
    x = np.linspace(0.0, 3.0, values.shape[1])
    svg_heatmap(tmp_path / "map.svg", x, y, values)
    assert _lines(tmp_path / "map.svg", "<rect x=") == \
        _heatmap_rects(x, y, values)


# one heatmap cell or colour bar step, all five fields in one template
_GENERIC_RECT = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"'
                 ' fill="#%06x"/>')


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 5),
                                   (250, 130), (122, 121)],
                         ids=["1x1", "1xn", "nx1", "odd", "strided",
                              "strided-rows"])
def test_heatmap_cells_match_generic_rows(tmp_path, monkeypatch, shape):
    # the per-column and per-row text of _Canvas.cells against one
    # %-format of all five fields of every cell; 250 x 130 and 122 x 121
    # are drawn at a stride
    values = np.random.default_rng(shape[0]).normal(size=shape)
    y = np.linspace(-1.0, 1.0, shape[0]) ** 3
    x = np.geomspace(1e-3, 7.0, shape[1])
    svg_heatmap(tmp_path / "cells.svg", x, y, values)

    def rows(canvas, xs, ys, width, height, fills):
        canvas.rows(_GENERIC_RECT, xs, ys[:, None], width, height, fills)

    monkeypatch.setattr(svgplot._Canvas, "cells", rows)
    svg_heatmap(tmp_path / "rows.svg", x, y, values)
    assert (tmp_path / "cells.svg").read_bytes() == \
        (tmp_path / "rows.svg").read_bytes()


def test_chart_bars_and_paths_match_scalar_writer(tmp_path):
    rng = np.random.default_rng(6)
    long_x = np.linspace(0.0, 8.0, 3001)       # strided to 1001 bars
    series = [
        {"label": "bars", "x": long_x, "y": rng.uniform(size=3001),
         "style": "bar"},
        {"label": "line", "x": long_x, "y": np.sin(long_x) - 0.3},
        {"label": "short bars", "x": [2.5], "y": [-0.25], "style": "bar"},
        {"label": "negative", "x": [0.125, 4.375, 7.875],
         "y": [-0.0, -0.6, 0.995]},
    ]
    svg_chart(tmp_path / "chart.svg", series)
    assert _lines(tmp_path / "chart.svg", "<rect x=", "<path ") == \
        _chart_elements(series)
