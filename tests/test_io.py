"""File writers: the %.17g kernel, block-formatted CSV output and
whole-file replacement."""

import math
import os

import numpy as np
import pytest

from vortexcorr import io
from vortexcorr.density import density_grid
from vortexcorr.io import canonical_json, format_block, write_csv
from vortexcorr.states import build_state, fermi_fock


def _write_csv_whole(path, columns, rows, prov=None, comments=()):
    """Reference writer: every cell formatted on its own, every line
    formatted first, then one write."""
    lines = []
    if prov is not None:
        lines.append("# provenance: " + canonical_json(prov))
    for comment in comments:
        lines.append("# " + comment)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("%.17g" % float(cell) for cell in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _rows(count):
    """Float cells as the command line passes them: numpy scalars and
    python floats, with NaN and infinities among them."""
    values = np.random.default_rng(5).normal(size=count)
    special = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300)
    return [(float(i), float(v), v * 1e-9, special[i % len(special)])
            for i, v in enumerate(values)]


def _assert_percent_rows(table):
    """format_block against every cell through Python's %.17g, one at a
    time; a failure names the first rows that differ."""
    got = format_block(table).split("\n")
    want = [",".join("%.17g" % cell for cell in row)
            for row in table.tolist()] + [""]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:3]


def _edge_values():
    """Cells next to every rounding and notation boundary of %.17g."""
    tens = np.array([10.0 ** k for k in range(-300, 300)]
                    + [float(f"1e{k}") for k in range(-300, 300)])
    # 17 nines and a half: rounding carries into the next power of ten
    nines = np.array([float(f"9.99999999999999995e{k}")
                      for k in range(-300, 300)])
    near = np.concatenate([tens, nines])
    near = np.concatenate([near, np.nextafter(near, 0.0),
                           np.nextafter(near, np.inf)])
    exact_ties = 1.0 + np.arange(1, 64) * 2.0 ** -17  # 1 + 2**-17 and kin
    notation = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5,
                         9.99999999999999955e-6, 99999999999999984.0,
                         2.0 ** 53, 2.0 ** 53 + 2.0, 2.0 ** 63])
    notation = np.concatenate([notation, np.nextafter(notation, 0.0),
                               np.nextafter(notation, np.inf)])
    specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                         2.2250738585072014e-308, 1e-270, 1e280,
                         1.7976931348623157e308, 1.5e-300, 1e100, 1e-100])
    values = np.concatenate([near, exact_ties, notation, specials])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [1, 3, 5])
def test_format_block_edge_table(cols):
    values = _edge_values()
    _assert_percent_rows(values[:values.size // cols * cols].reshape(-1, cols))


def test_format_block_matches_percent_formatting():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=60),
                      st.integers(1, 5))
    def check(values, cols):
        values += [0.0] * (-len(values) % cols)
        _assert_percent_rows(np.array(values).reshape(-1, cols))

    check()


def test_format_block_random_bit_patterns():
    bits = np.random.default_rng(11).integers(
        0, 2 ** 64, size=60000, dtype=np.uint64, endpoint=False)
    _assert_percent_rows(bits.view(np.float64).reshape(-1, 4))


def _fallbacks(values):
    values = np.ascontiguousarray(values, dtype=float).ravel()
    slots = np.zeros((values.size, 4), np.dtype("<u8"))
    return io._cells(values, slots)


def test_kernel_decides_almost_every_cell():
    # a kernel that sent every cell to Python's % would still print the
    # right bytes; it would fail here
    normal = np.random.default_rng(3).normal(size=100000)
    assert _fallbacks(normal) <= 1e-6 * normal.size
    fld = density_grid(build_state(fermi_fock()), extent=6.0, step=0.05)
    x, y = np.meshgrid(fld.x, fld.y, indexing="ij")
    grid = np.stack([x, y, fld.values])
    assert _fallbacks(grid) <= 1e-6 * grid.size
    # and the cases it must leave to Python do reach the fallback
    assert _fallbacks([math.nan, math.inf, 5e-324, 1e300, 1.0 + 2.0 ** -17,
                       0.5, 0.0, 1.0]) == 5


@pytest.mark.parametrize("count", [0, 1, 7, 50, 70000])
def test_block_stream_matches_whole_file_writer(tmp_path, monkeypatch, count):
    if count < 1000:
        monkeypatch.setattr(io, "_CSV_BLOCK", 7)
    rows = _rows(count)
    columns = tuple(np.array(rows, dtype=float).reshape(count, 4).T)
    args = (("i", "x", "y", "edge"),)
    kwargs = {"prov": {"tool": "t", "seed": 3}, "comments": ("a", "b")}
    _write_csv_whole(tmp_path / "whole.csv", *args, rows, **kwargs)
    write_csv(tmp_path / "blocks.csv", *args, columns, **kwargs)
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["blocks.csv", "whole.csv"]


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (9, 4)])
def test_broadcast_columns_run_in_c_order(tmp_path, monkeypatch, shape):
    # blocks of 7 rows start and end inside the rows of the grid
    monkeypatch.setattr(io, "_CSV_BLOCK", 7)
    x = np.linspace(-1.0, 1.0, shape[0])
    y = np.geomspace(1e-3, 1e3, shape[1])
    values = np.random.default_rng(2).normal(size=shape)
    rows = [(x[i], y[j], values[i, j])
            for i in range(shape[0]) for j in range(shape[1])]
    _write_csv_whole(tmp_path / "whole.csv", ("x", "y", "v"), rows)
    write_csv(tmp_path / "blocks.csv", ("x", "y", "v"),
              (x[:, None], y[None, :], values))
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()


def test_failure_midway_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_CSV_BLOCK", 7)
    path = tmp_path / "out.csv"
    path.write_text("earlier run\n")
    format_block = io.format_block
    blocks = []

    def fails_on_third_block(table):
        blocks.append(len(table))
        if len(blocks) == 3:
            # two blocks went to the partial file before this one
            assert (tmp_path / "out.csv.part").exists()
            raise RuntimeError("formatter failed")
        return format_block(table)

    monkeypatch.setattr(io, "format_block", fails_on_third_block)
    with pytest.raises(RuntimeError):
        write_csv(path, ("i", "x"), (np.arange(20.0), 0.5))
    assert blocks == [7, 7, 6]
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_json_failure_midway_leaves_earlier_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("earlier run\n")
    # the encoder has written the keys before "z" when it meets the object
    with pytest.raises(TypeError):
        io.write_json(path, {"a": 1.5, "b": [1, 2], "z": object()})
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["out.json"]
    io.write_json(path, {"a": math.nan})
    assert path.read_text() == '{\n  "a": null\n}\n'
