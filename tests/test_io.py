"""File writers: block-streamed CSV output."""

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
    args = (("i", "x", "y", "edge"),)
    kwargs = {"prov": {"tool": "t", "seed": 3}, "comments": ("a", "b")}
    _write_csv_whole(tmp_path / "whole.csv", *args, rows, **kwargs)
    write_csv(tmp_path / "blocks.csv", *args, iter(rows), **kwargs)
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["blocks.csv", "whole.csv"]


def test_failure_midway_leaves_no_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_CSV_BLOCK", 7)
    path = tmp_path / "out.csv"
    path.write_text("earlier run\n")

    def rows():
        for i in range(20):
            yield (float(i), 0.5)
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_csv(path, ("i", "x"), rows())
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["out.csv"]
