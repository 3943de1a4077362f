"""File writers and reader: the %.17g kernel and its inverse,
block-formatted CSV output and whole-file replacement."""

import decimal
import fractions
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vortexcorr import io
from vortexcorr.density import density_grid
from vortexcorr.io import (canonical_json, format_block, parse_block,
                          write_csv)
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
    got = format_block(table).decode("ascii").split("\n")
    want = [",".join("%.17g" % cell for cell in row)
            for row in table.tolist()] + [""]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:3]


def _assert_reads_back(table):
    """parse_block of format_block's text returns every cell bit for bit,
    NaN as NaN."""
    got = parse_block(format_block(table), table.shape[1])
    nan = np.isnan(table)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          table[~nan].view(np.uint64))


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
    table = values[:values.size // cols * cols].reshape(-1, cols)
    _assert_percent_rows(table)
    _assert_reads_back(table)


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
    _assert_reads_back(bits.view(np.float64).reshape(-1, 4))


def _fallbacks(values):
    values = np.ascontiguousarray(values, dtype=float).ravel()
    slots = np.zeros((values.size, 4), np.dtype("<u8"))
    return io._cells(values, slots, np.zeros(values.size, np.int64))


def _varied_cells(size, seed):
    """Cells of every length %.17g prints: signs, fixed and exponent
    notation, trailing zeros, zeros and the cells Python's % prints."""
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=size) * 10.0 ** rng.integers(-12, 24, size)
    cells[::7] = np.round(cells[::7], rng.integers(0, 6))
    cells[::11] = rng.choice([0.0, -0.0, math.nan, math.inf, 1e300, 5e-324,
                              1.0 + 2.0 ** -17, 1e16, 1e-5], size=cells[::11]
                             .size)
    return cells


@pytest.mark.parametrize("cols", range(1, 8))
def test_format_block_at_kernel_block_edges(cols):
    # rows of one kernel pass of cells less one row, one pass and one row
    # more; each pass lays its slots at their offsets in one assignment
    block = -(-io._CELLS // cols)
    for rows in (block - 1, block, block + 1):
        table = _varied_cells(rows * cols, rows).reshape(rows, cols)
        _assert_percent_rows(table)
        _assert_reads_back(table)


@pytest.mark.parametrize("cols", range(1, 8))
def test_write_csv_at_row_block_edges(tmp_path, monkeypatch, cols):
    # one row block less one row, one block and one row more, against one
    # Python %-format of the whole table; the file reads back bit for bit.
    # A block of rows of 5 or more cells spans kernel passes.
    monkeypatch.setattr(io, "_CSV_BLOCK", io._CELLS // 5 + 1)
    path = tmp_path / "blocks.csv"
    for rows in (io._CSV_BLOCK - 1, io._CSV_BLOCK, io._CSV_BLOCK + 1):
        table = _varied_cells(rows * cols, cols).reshape(rows, cols)
        names = ",".join(f"c{j}" for j in range(cols))
        write_csv(path, names.split(","), tuple(table.T))
        row = ",".join(["%.17g"] * cols) + "\n"
        text = path.read_bytes()
        assert text == (names + "\n" + row * rows
                        % tuple(table.ravel().tolist())).encode()
        back = parse_block(text.split(b"\n", 1)[1], cols)
        nan = np.isnan(table)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back[~nan].view(np.uint64),
                              table[~nan].view(np.uint64))


_DISPATCH_DIGEST = """
import hashlib, sys
import numpy as np
from vortexcorr.io import format_block, parse_block
umath = getattr(np, "_core", None) or np.core
features = umath._multiarray_umath.__cpu_features__
digest = hashlib.sha256()
for name in ("edge.npy", "bits.npy"):
    table = np.load(sys.argv[1] + "/" + name)
    text = format_block(table)
    digest.update(text)
    digest.update(parse_block(text, table.shape[1]).tobytes())
print(digest.hexdigest(), sorted(name for name, on in features.items() if on))
"""


def test_text_kernels_do_not_depend_on_simd_dispatch(tmp_path):
    # np.log10 only estimates a cell's exponent before it is corrected
    # exactly, so the text of a double, and the double read back from it,
    # must not change whichever SIMD targets numpy dispatches to; each
    # run turns off one more of the host's targets, from the top
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    targets = [target for target in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(target)]
    values = _edge_values()
    np.save(tmp_path / "edge.npy", values[:values.size // 4 * 4]
            .reshape(-1, 4))
    bits = np.random.default_rng(11).integers(
        0, 2 ** 64, size=60000, dtype=np.uint64, endpoint=False)
    np.save(tmp_path / "bits.npy", bits.view(np.float64).reshape(-1, 4))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(io.__file__)),
                            os.environ.get("PYTHONPATH", "")])
    runs = [subprocess.Popen(
        [sys.executable, "-c", _DISPATCH_DIGEST, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" "
                 .join(targets[len(targets) - off:])),
        stdout=subprocess.PIPE, text=True)
        for off in range(len(targets) + 1)]
    outputs = [run.communicate()[0].split(" ", 1) for run in runs]
    assert all(run.returncode == 0 for run in runs)
    # every run had other features on, and all wrote and read alike
    assert len({features for _, features in outputs}) == len(runs)
    assert len({digest for digest, _ in outputs}) == 1, outputs


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


def test_parse_block_reads_back_bit_patterns():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308,
                               1e300, -1e-300, 1e300 * 10.0 ** 8, 12345.0,
                               -7.0, 2.0 ** 53, math.inf, -math.inf,
                               math.nan])
    bits = st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.one_of(bits, special), min_size=1,
                               max_size=40), st.integers(1, 5))
    def check(values, cols):
        values += [0.0] * (-len(values) % cols)
        _assert_reads_back(np.array(values).reshape(-1, cols))

    check()


def _assert_float(cells):
    """parse_block against Python's float() of every cell."""
    got = parse_block("\n".join(cells), 1).ravel()
    want = np.array([float(cell) for cell in cells])
    bad = [c for c, g, w in zip(cells, got.view(np.uint64),
                                want.view(np.uint64)) if g != w]
    assert got.size == len(cells) and not bad, bad[:3]


def test_parse_block_matches_float_on_decimal_strings():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def decimal_cell(draw):
        digits = draw(st.text("0123456789", min_size=1, max_size=20))
        point = draw(st.integers(-1, len(digits)))
        cell = draw(st.sampled_from(["", "-"])) + (
            digits if point < 0 else digits[:point] + "." + digits[point:])
        if draw(st.booleans()):
            cell += draw(st.sampled_from("eE")) + str(draw(
                st.integers(-40, 40)))
        return cell

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(decimal_cell(), min_size=1, max_size=30))
    def check(cells):
        _assert_float(cells)

    check()


def test_parse_block_matches_float_next_to_midpoints():
    # decimals next to the midpoint of two neighbouring doubles: 17 digits
    # the kernel decides, 19 and 20 digits fall within 2**-60 of it; the
    # midpoints of doubles in [2**50, 2**54) are exact in 19 digits
    rng = np.random.default_rng(19)
    xs = np.abs(rng.normal(size=400)) * 10.0 ** rng.integers(-3, 12, 400)
    xs = np.concatenate([xs, np.ldexp(rng.uniform(1.0, 2.0, 200),
                                      rng.integers(50, 54, 200))])
    cells = []
    for x in xs.tolist():
        mid = (fractions.Fraction(x)
               + fractions.Fraction(math.nextafter(x, math.inf))) / 2
        exact = decimal.Context(prec=60).divide(
            decimal.Decimal(mid.numerator), decimal.Decimal(mid.denominator))
        for digits in (17, 19, 20, 60):
            cells.append(format(decimal.Context(prec=digits).plus(exact),
                                "f"))
    _assert_float(cells)


def test_parse_block_reads_almost_every_cell_itself(monkeypatch):
    # a reader that sent every cell to float() would still be exact; it
    # would fail here
    calls = []
    cell = io._cell
    monkeypatch.setattr(io, "_cell", lambda text: calls.append(text)
                        or cell(text))
    values = np.random.default_rng(3).normal(size=(20000, 5))
    values[:, 0] = np.arange(20000)
    _assert_reads_back(values)
    assert len(calls) <= 1e-3 * values.size
    # and what it must leave to float() does reach it
    calls.clear()
    assert parse_block("1e3,+2, 3,inf\n", 4).tolist() == [
        [1000.0, 2.0, 3.0, math.inf]]
    assert calls == ["1e3", "+2", " 3", "inf"]


def test_parse_block_lines():
    assert parse_block("", 5).shape == (0, 5)
    assert parse_block("\n\n", 2).shape == (0, 2)
    # blank lines are skipped and the last line may lack its newline
    assert parse_block("\n1,2\n\n\n-3.5,.5\n\n7,8", 2).tolist() == [
        [1.0, 2.0], [-3.5, 0.5], [7.0, 8.0]]
    for text in ("1,2\n3\n", "1,2,3\n", " \n1,2\n", "1,2\r3,4\n"):
        with pytest.raises(ValueError, match="cells"):
            parse_block(text, 2)
    # what numpy's text reader refuses, although float() takes it
    for cell in ("1_0", "\u0661", "", "-", ".", "-.", "1.2.3", "1-2",
                 "--1", "0x10", "abc", "1e", "#1"):
        with pytest.raises(ValueError):
            parse_block(cell + ",0\n", 2)


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
    # the encoder meets the object after the keys before "z"
    with pytest.raises(TypeError):
        io.write_json(path, {"a": 1.5, "b": [1, 2], "z": object()})
    assert path.read_text() == "earlier run\n"
    assert os.listdir(tmp_path) == ["out.json"]
    io.write_json(path, {"a": math.nan})
    assert path.read_text() == '{\n  "a": null\n}\n'
