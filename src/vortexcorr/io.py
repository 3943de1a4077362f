"""Deterministic file writers with embedded provenance.

Every artifact written by the command line carries the tool version, a hash
of the resolved run configuration, the seed when one is involved and the
state's flags, so a file can always be traced back to the exact run that
produced it. All floats are printed with 17 significant digits (full
round-trip precision); identical inputs produce byte-identical files.

The config hash is the SHA-256 of the canonical JSON, taken with CPython's
built-in `_sha2` (`_sha256` before Python 3.12), as `random` does for its
sha512. `hashlib` would load OpenSSL's libcrypto for this one ~300-byte
digest, about 3.5 MB of resident memory and 2.5 ms on every command; it is
the fallback only where neither built-in module exists. The digest bytes
are the same either way.

write_rows is the one writer of CSV rows: write_csv calls it after its
'#' head, and the frames file after its header line. Its cells are the
bytes of C's `%.17g`, formatted by a numpy kernel a block of rows at a
time; the few cells the kernel cannot decide exactly go through Python's
own `%.17g` one at a time, and so does every cell of a table too small
to repay the kernel's layout tables. A grid axis of a table (the x of
every row of a density grid) is formatted once per file, and its text is
copied into each row. parse_block reads such text back the same way:
a numpy kernel turns each plain decimal cell into the nearest double,
and the few cells it cannot decide, or that are not plain decimals, go
through Python's float().
"""

import contextlib
import functools
import json
import math
import os

import numpy as np

from .version import GENERATOR_VERSION, VERSION

try:  # lean built-in modules first: hashlib would load libcrypto
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256 as _sha256

TOOL_NAME = "vortexcorr"


def canonical_json(payload):
    """Stable compact JSON used for hashing and header lines."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(config):
    return _sha256(canonical_json(config).encode("utf-8")).hexdigest()


def provenance(config=None, seed=None, flags=()):
    """Provenance block; `flags` are the markers the state carries (for
    example "supplement-approximated"), recorded only when present."""
    prov = {
        "tool": TOOL_NAME,
        "version": VERSION,
        "generator": GENERATOR_VERSION,
        "config_sha256": config_hash(config or {}),
    }
    if seed is not None:
        prov["seed"] = int(seed)
    if flags:
        prov["flags"] = list(flags)
    return prov


@contextlib.contextmanager
def whole_file(path):
    """Binary handle on `<path>.part`, moved onto `path` only when the
    block completes, so a failure midway leaves no partial file behind."""
    part = f"{path}.part"
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


# %.17g from numpy. A cell x != 0 with _TINY <= |x| <= _HUGE prints the
# 17 digits of m, the integer nearest |x| 10**(16 - k) for its decimal
# exponent k. The product is taken as hi + lo, within 5e-15 of the exact
# value (Dekker's two-product against 10**(16 - k) held as a double-double),
# so m is certain unless lo lies within 2**-30 of a half-integer. Those
# cells, infinities, NaN and cells outside the range go through Python's
# '%.17g' one at a time. A cell's text, then ',', fills a slot of four
# little-endian words: the sign, the "0.000" of fixed notation below 1,
# the digits, those after the point shifted up a byte to make room for
# it, and any "e+dd". _csv_block lays the slots end to end.
_CELLS = 16384  # cells per kernel pass and CSV block, kept in cache
_TINY, _HUGE = 1e-270, 1e280  # no split or product under- or overflows
_NEAR_HALF = 0.5 - 2.0 ** -30
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_EXPONENTS = 300  # the exponent tables span -300 <= k < 300
_WORD = np.dtype("<u8")
_U = np.uint64
_COMMA, _NEWLINE = ord(","), ord("\n")
_ZEROS = _U(0x3030303030303030)  # '0' in every byte


@functools.cache
def _power_of_ten(p):
    """10**p as hh + hl + low: hh + hl is the nearest double, split into
    halves, and low the rounded remainder, both from exact integers."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    h = num / den
    n, d = h.as_integer_ratio()
    c = _SPLIT * h
    hh = c - (c - h)
    return hh, h - hh, (num * d - n * den) / (den * d)


def _product(a, hh, hl):
    """a (hh + hl) as hi + lo, with hi the rounded product and lo its
    error from Dekker's two-product (hh and hl: halves of _power_of_ten)."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    hi = a * (hh + hl)
    return hi, (((ah * hh - hi) + ah * hl) + al * hh) + al * hl


def _scaled(a, k):
    """a 10**(16 - k) as the unevaluated sum hi + lo."""
    k0 = int(k.min())
    powers = np.array([_power_of_ten(16 - j)
                       for j in range(k0, int(k.max()) + 1)]).T
    hh, hl, low = powers.take(k - k0, axis=1)
    hi, lo = _product(a, hh, hl)
    return hi, lo + a * low


@functools.cache
def _slot_tables():
    """Per sign and exponent k: the head word (the sign, then the "0.000"
    of fixed notation below 1), its width in bits and k's first rows, in
    blocks of 18 for the last digit -1 to 16. Per layout (block k for k +
    1 digits before the point, 17 for 0.000ddd): masks of the digit bytes
    and shifted digit bytes kept. Per fill (a layout, then block 17 + i
    for the i-th exponent): the '0' and '.' bits, the exponent and the
    ',', and the length of all that."""
    k = np.arange(-_EXPONENTS, _EXPONENTS)
    small = (k < 0) & (k >= -4)  # 0.000ddd: every digit before the point
    wide = (k < -4) | (k > 16)  # d.ddde+kk
    block = np.where(small, 17, np.where(wide, 0, k))
    width = 8 * np.where(small, 1 - k, 0)
    per_k = np.stack([0x303030302E30 & (1 << width) - 1, width,
                      18 * block + 1, 18 * np.where(
                          wide, 17 + np.cumsum(wide), block) + 1]).astype(_U)
    signed = per_k.copy()
    signed[:2] = per_k[0] << _U(8) | _U(ord("-")), per_k[1] + _U(8)
    # "e+dd," or "e+ddd,", with the 'e' xor ','
    e = np.abs(k[wide]).astype(_U)[:, None]
    three = _U(8) * (e >= _U(100))
    tails = (((_digits8(e) | _ZEROS) >> _U(48) - three
              | _U(_COMMA) << _U(16) + three) << _U(16)
             | _U(2) * (k[wide, None] < 0) + _U(ord("+")) << _U(8)
             | _U(ord("e") ^ _COMMA))
    last = np.arange(-1, 17)
    lead = np.r_[1:18, 0][:, None]
    lead = np.where(lead == 0, last + 1, lead)
    size = np.where(last >= lead, last + 2, lead)
    pos = np.arange(24)[:, None, None]
    kept = pos < lead
    moved = (pos > lead) & (pos <= last + 1)
    fill = np.where(kept | moved, 0x30, np.where(
        (pos == lead) & (last >= lead), 0x2E, (pos == size) * _COMMA))
    masks = np.stack([0xFF * kept, 0xFF * moved, fill]).astype(np.uint8)
    words = masks.reshape(9, 8, 324).transpose(0, 2, 1).copy().view(
        _WORD)[..., 0]
    # the exponent of a d.ddd row goes where its ',' was, at byte `size`
    at = _U(8) * size[0].astype(_U)
    wide_fills = [words[6 + j, :18] ^ (tails << np.maximum(at, _U(64 * j))
                                       - _U(64 * j))
                  >> (np.maximum(at, _U(64 * j)) - at) for j in range(3)]
    return (np.concatenate([per_k, signed], 1), words[:6].copy(),
            np.concatenate([words[6:], np.reshape(wide_fills, (3, -1))], 1),
            np.concatenate([size.ravel() + 1, (size[0] + 5 + (three > 0))
                            .ravel()]).astype(_U))


def _digits8(v):
    """The 8 decimal digits of each v < 10**8, one per byte, the leading
    digit in the lowest byte."""
    a = v // _U(10000)
    x = a | ((v - a * _U(10000)) << _U(32))
    y = ((x * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # x // 100
    x = y | ((x - _U(100) * y) << _U(16))
    y = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # x // 10
    return y | ((x - _U(10) * y) << _U(8))


def _cells(x, slots, sizes):
    """Fill the (n, 4) word `slots` with the text and ',' of each float
    cell of `x`, and `sizes` with their lengths in bytes; returns how many
    cells went through Python's %."""
    a = np.abs(x)
    fast = (a >= _TINY) & (a <= _HUGE)
    a[~fast] = 1.0
    # never below the decimal exponent, one above it next to a power of ten
    k = np.floor(np.log10(a) + 1e-12).astype(np.int64)
    hi, lo = _scaled(a, k)
    high = np.flatnonzero((hi < 1e16) | (hi == 1e16) & (lo < 0.0))
    if high.size:
        k[high] -= 1
        hi[high], lo[high] = _scaled(a[high], k[high])
    r = np.rint(lo)
    m = hi.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(m == 10 ** 17)
    m[carry] = 10 ** 16
    k[carry] += 1
    zero = x == 0.0
    m[zero] = 0
    slow = np.flatnonzero(~(fast | zero) | (np.abs(lo - r) > _NEAR_HALF))
    del a, hi, lo, r  # with the dels below, a pass's arrays stay under 3 MB

    m = m.view(_U)
    tens = m // _U(10)
    d16 = m - _U(10) * tens
    w = np.empty((2, x.size), _U)
    np.floor_divide(tens, _U(10 ** 8), out=w[0])
    w[1] = tens - w[0] * _U(10 ** 8)
    w0, w1 = _digits8(w)
    # index of the last non-zero digit (-1 for zero), from the exponent
    # of the 136-bit digit string; every digit byte is below 16
    top = (d16 * 2.0 ** 64 + w1) * 2.0 ** 64 + w0
    last = np.maximum(((top.view(np.int64) >> 52) - 1023) >> 3, -1)
    del m, tens, w, top
    per_k, layouts, fills, lengths = _slot_tables()
    # the tables of negative cells follow those of positive ones
    k += _EXPONENTS + ((x.view(np.int64) >> 63) & 2 * _EXPONENTS)
    head, shift, lay, row = per_k.take(k, axis=1)
    row += last.view(_U)
    lay = layouts.take(lay + last.view(_U), axis=1)
    b0, b1, b2 = body = fills.take(row, axis=1)
    body[0] |= (w0 & lay[0]) | ((w0 << _U(8)) & lay[3])
    body[1] |= (w1 & lay[1]) | (((w1 << _U(8)) | (w0 >> _U(56))) & lay[4])
    body[2] |= (d16 & lay[2]) | (((d16 << _U(8)) | (w1 >> _U(56))) & lay[5])
    del lay
    # the head goes first, shifting the rest up by its width
    back = _U(64) - shift
    np.bitwise_or(head, b0 << shift, out=slots[:, 0])
    np.bitwise_or(b0 >> back, b1 << shift, out=slots[:, 1])
    np.bitwise_or(b1 >> back, b2 << shift, out=slots[:, 2])
    np.right_shift(b2, back, out=slots[:, 3])
    np.add(lengths.take(row), shift >> _U(3), out=sizes.view(_U))
    text = ["%.17g," % v for v in x[slow].tolist()]
    sizes[slow] = [len(t) for t in text]
    slots[slow] = np.frombuffer("".join(t.ljust(32, "\0") for t in text)
                                .encode("ascii"), _WORD).reshape(-1, 4)
    return slow.size


def _axis(a, shape):
    """The slots and sizes of the cells of grid axis `a`, and the index of
    each table cell into them, broadcast to `shape` without a copy."""
    slots = np.empty((a.size, 4), _WORD)
    sizes = np.empty(a.size, np.int64)
    _cells(a.ravel(), slots, sizes)
    return slots, sizes, np.broadcast_to(
        np.arange(a.size).reshape(a.shape), shape)


def _csv_block(full, axes, lo, hi, block):
    """Rows lo to hi of a table as CSV text, laid in the text buffer of
    `block` and returned as the part of it the text fills: every cell's
    ',' ends at its slot's size, and the last one of a row turns into a
    newline. `full` and `axes` map the column numbers to full arrays and
    to grid axes as _axis gives them; every block reuses the buffers of
    `block`, which write_rows allocates once."""
    rows, cols = hi - lo, len(full) + len(axes)
    slots, sizes, out = block[0][:rows], block[1][:rows], block[2]
    if full:
        # the full columns are stacked into one table that goes through
        # the kernel in one pass; with no grid axis the table is the
        # block, and the kernel fills the block's slots directly
        flat = np.column_stack([a.flat[lo:hi] for a in full.values()]).ravel()
        table = (slots, sizes) if not axes else (block[3][:rows],
                                                 block[4][:rows])
        _cells(flat, table[0].reshape(-1, 4), table[1].ravel())
        if axes:
            slots[:, list(full)], sizes[:, list(full)] = table
    for j, (axis_slots, axis_sizes, index) in axes.items():
        at = index.flat[lo:hi]
        # the index lies in range, so take need not check it
        axis_slots.take(at, axis=0, out=slots[:, j], mode="clip")
        axis_sizes.take(at, out=sizes[:, j], mode="clip")
    # slots land at their offsets in overlapping 32-byte windows of `out`;
    # numpy assigns a 1-D index in order, so the cells after a slot
    # overwrite its bytes past the text
    window = np.ndarray((out.size - 31,), "V32", out, strides=(1,))
    ends = np.cumsum(sizes.ravel())
    window[ends - sizes.ravel()] = slots.view("V32").ravel()
    out[ends[cols - 1::cols] - 1] = _NEWLINE
    return out[:ends[-1]]


def write_rows(fh, values):
    """Write the rows of the arrays `values` to the binary handle `fh` as
    CSV text: the arrays broadcast against each other, the rows run over
    their broadcast shape in C order, and every cell is C's %.17g (any
    NaN as nan), cells joined by ',' and each row ending in a newline.

    A table of at most `_CELLS // 8` cells is printed by Python's %.17g
    directly. A larger one is made in blocks of at most `_CELLS` cells
    (one row when a row is wider), each one kernel pass. A column whose
    array holds fewer cells than the table and no more than `_CELLS` is
    a grid axis (`x[:, None]`): its cells are formatted once, and each
    block gathers their text through the broadcast index. The other
    columns are formatted block by block.
    """
    arrays = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    cols = len(arrays)
    if size * cols <= _CELLS // 8:
        # % takes ~0.6 us a cell, and a process's first kernel pass ~1.5 ms
        # more to build the layout tables: on a 2-core Xeon VM a fresh
        # process writes a table faster through % up to 2000-3000 cells.
        # The kernel leaves the cells it cannot decide to this same %
        cells = np.stack(np.broadcast_arrays(*arrays), -1).ravel().tolist()
        row = ",".join(["%.17g"] * cols) + "\n"
        fh.write((row * size % tuple(cells)).encode("ascii"))
        return
    rows = max(1, min(size, _CELLS // cols))  # per block
    axes = {j: _axis(a, shape) for j, a in enumerate(arrays)
            if a.size < size and a.size <= _CELLS}
    full = {j: np.broadcast_to(a, shape) for j, a in enumerate(arrays)
            if j not in axes}
    # no cell takes more than 25 bytes; with grid axes the full columns
    # get slots and sizes of their own, which the kernel fills
    block = (np.empty((rows, cols, 4), _WORD),
             np.empty((rows, cols), np.int64),
             np.empty(25 * cols * rows + 32, np.uint8),
             *((np.empty((rows, len(full), 4), _WORD),
                np.empty((rows, len(full)), np.int64)) if axes else ()))
    for lo in range(0, size, rows):
        fh.write(_csv_block(full, axes, lo, min(lo + rows, size), block))


# Reading a CSV block back: every cell equals Python's float() of it. A
# cell is taken as the 24 bytes that end at its separator, three
# little-endian words with the cell right-aligned in them. With a leading
# '-' and one '.' left out, the digits give an integer m of at most 19
# digits (leading zeros aside) and m 10**-f, for f digits after the point,
# is rounded from hi + lo as in _scaled. That is the double nearest the
# cell unless the cell lies within 2**-60 (relative) of a rounding
# midpoint; those cells, cells that are not such plain decimals
# (exponents, '+', spaces, inf, nan, longer cells) and empty cells go
# through float() one at a time.
_WINDOW = 24
_DOT = ord(".") ^ 0x30  # a '.' once the digit bits are flipped
_TOO_BIG = _U(0x7676767676767676)  # pushes a byte above 9 into bit 7
_BIT7 = _U(0x8080808080808080)
_PAIRS = _U(10 * 2 ** 8 + 1), _U(100 * 2 ** 16 + 1), _U(10000 * 2 ** 32 + 1)
_LANES = _U(0x00FF00FF00FF00FF), _U(0x0000FFFF0000FFFF), _U(2 ** 32 - 1)
_SHIFTS = _U(8), _U(16), _U(32)
_TOP, _SIGN = _U(56), _U(63)
_E8, _E16 = _U(10 ** 8), _U(10 ** 16)


@functools.cache
def _read_tables():
    """Per cell length l <= 24: the words masking its bytes. Per dot code
    (the '.' position + 1, 0 for none; codes above 24 mean several '.'):
    the words keeping the bytes after and before the '.', then 10**-f for
    the f digits after it, as _power_of_ten gives it. And per word w, the
    multiplier whose top byte turns a '.' flag at byte b into the dot code
    8 w + b + 1."""
    pos = np.arange(_WINDOW)
    lengths = np.arange(_WINDOW + 1)[:, None]
    field = ((pos >= _WINDOW - lengths) * 0xFF).astype(np.uint8)
    dot = np.arange(3 * 256)[:, None] - 1
    one = dot < _WINDOW
    sides = np.concatenate([(pos > dot) & one, (pos < dot) & one], 1)
    frac = np.where(dot < 0, 0, _WINDOW - 1 - np.minimum(dot, _WINDOW - 1))
    powers = np.array([_power_of_ten(-f) for f in range(_WINDOW)])
    magic = [sum((8 * w + 8 - i) << (8 * i) for i in range(8))
             for w in range(3)]
    return (field.view(_WORD).T.copy(),
            (sides * 0xFF).astype(np.uint8).view(_WORD).T.copy(),
            powers.take(frac.ravel(), axis=0).T.copy(),
            np.array(magic, _WORD)[:, None])


def _value8(v):
    """The inverse of _digits8: the number whose 8 decimal digits are the
    bytes of v, the leading digit in the lowest byte."""
    for pair, lane, shift in zip(_PAIRS, _LANES, _SHIFTS):
        v = ((v * pair) >> shift) & lane
    return v


def _separators(b, cols):
    """Positions of the ',' and newline bytes of `b` when every line
    holds `cols` cells, else None."""
    def regular(sep):
        kinds = b[sep]
        return (sep.size % cols == 0
                and bool((kinds[cols - 1::cols] == _NEWLINE).all())
                and np.count_nonzero(kinds == _COMMA)
                == sep.size - sep.size // cols)
    # every byte of a plain decimal lies above ','
    sep = np.flatnonzero(b <= _COMMA)
    if regular(sep):
        return sep
    sep = np.flatnonzero((b == _COMMA) | (b == _NEWLINE))
    return sep if regular(sep) else None


def _cell(text):
    """float() of one cell, refusing what numpy's text reader refuses as
    well: characters beyond ASCII and '_' between digits."""
    cell = text.strip()
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(cell)


def parse_block(data, cols):
    """The rows of CSV `data`, bytes or text, as a (rows, cols) float
    array, the inverse of write_rows: every cell equals float() of it,
    blank lines are skipped and the last line may lack its newline. A row
    of another number of cells, or a cell that is not a number, raises
    ValueError."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    if data and not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, np.uint8)
    sep = _separators(b, cols)
    if sep is None:
        rows = [line for line in data.split(b"\n") if line]
        if len(rows) < data.count(b"\n"):
            return parse_block(b"\n".join(rows), cols)
        raise ValueError(f"a row does not hold {cols} cells")
    n = sep.size
    field, sides, powers, magic = _read_tables()
    u = np.zeros(_WINDOW + b.size, np.uint8)
    u[_WINDOW:] = b
    start = np.full(n, _WINDOW)
    np.add(sep[:-1], _WINDOW + 1, out=start[1:])
    negative = u.take(start) == ord("-")
    size = sep + _WINDOW - start - negative
    window = np.ndarray((b.size + 1,), f"V{_WINDOW}", u, strides=(1,))
    words = np.ascontiguousarray(window[sep].view(_WORD).reshape(n, 3).T)
    # the cell's bytes with the '0' bits flipped, digits now 0-9; 0 outside
    flipped = (words ^ _ZEROS) & field.take(np.minimum(size, _WINDOW), 1)
    dots = (flipped.view(np.uint8) == _DOT).view(_WORD) * magic >> _TOP
    code = dots[0] + dots[1] + dots[2]
    after, before = np.split(sides.take(code, axis=1), 2)
    # the digits before the '.' move up a byte, onto it
    moved = flipped & before
    digits = (flipped & after) | (moved << _SHIFTS[0])
    digits[1:] |= moved[:-1] >> _TOP
    wrong = ((digits + _TOO_BIG) | digits) & _BIT7
    digits = _value8(digits)
    slow = (wrong[0] | wrong[1] | wrong[2]) != 0
    slow |= (digits[0] >= 1000) | (code > _WINDOW)
    # too long, or no digit at all
    slow |= (size > _WINDOW) | (size <= (code > 0))
    m = digits[0] * _E16 + digits[1] * _E8 + digits[2]
    mh = m.astype(np.float64)
    ml = (m - mh.astype(_U)).view(np.int64).astype(np.float64)
    hh, hl, low = powers.take(code, axis=1)
    hi, lo = _product(mh, hh, hl)
    lo = lo + (mh * low + ml * (hh + hl))
    # the cell is certain when both ends of hi + lo +- 2**-60 hi round alike
    e = hi * 2.0 ** -60
    x = hi + (lo - e)
    slow |= x != hi + (lo + e)
    bits = x.view(_U)
    bits |= negative.astype(_U) << _SIGN
    for i in np.flatnonzero(slow).tolist():
        x[i] = _cell(data[start[i] - _WINDOW:sep[i]].decode("utf-8"))
    return x.reshape(-1, cols)


def write_csv(path, columns, values, prov=None, comments=()):
    """CSV with '#'-prefixed provenance and comment lines before the
    header, then the rows of `values`, one array per named column, as
    write_rows lays them out."""
    head = []
    if prov is not None:
        head.append("# provenance: " + canonical_json(prov))
    for comment in comments:
        head.append("# " + comment)
    head.append(",".join(columns))
    with whole_file(path) as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        write_rows(fh, values)


def _strict(value):
    """JSON has no NaN or infinity: such floats become null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def write_json(path, payload):
    text = json.dumps(_strict(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    with whole_file(path) as fh:
        fh.write((text + "\n").encode("utf-8"))
