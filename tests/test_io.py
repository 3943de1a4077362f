"""File writers: block-formatted CSV output and whole-file replacement."""

import math
import os

import numpy as np
import pytest

from vortexcorr import io
from vortexcorr.io import canonical_json, write_csv


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

    def fails_on_third_block(row_format, table):
        blocks.append(len(table))
        if len(blocks) == 3:
            # two blocks went to the partial file before this one
            assert (tmp_path / "out.csv.part").exists()
            raise RuntimeError("formatter failed")
        return format_block(row_format, table)

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
