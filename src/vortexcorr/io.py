"""Deterministic file writers with embedded provenance.

Every artifact written by the command line carries the tool version, a hash
of the resolved run configuration, the seed when one is involved and the
state's flags, so a file can always be traced back to the exact run that
produced it. All floats are printed with 17 significant digits (full
round-trip precision); identical inputs produce byte-identical files.
"""

import contextlib
import hashlib
import json
import math
import os

import numpy as np

from .version import GENERATOR_VERSION, VERSION

TOOL_NAME = "vortexcorr"
# CSV rows per block: a block's Python floats and text stay near 4 MB
_CSV_BLOCK = 16384


def canonical_json(payload):
    """Stable compact JSON used for hashing and header lines."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


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
    """Text handle on `<path>.part`, moved onto `path` only when the block
    completes, so a failure midway leaves no partial file behind."""
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def format_block(row_format, table):
    """Rows of the 2-D array `table`, each through `row_format` (one line's
    conversions), in a single %-format call."""
    return row_format * table.shape[0] % tuple(table.ravel().tolist())


def write_csv(path, columns, values, prov=None, comments=()):
    """CSV with '#'-prefixed provenance and comment lines before the header.

    `values` holds one array per named column; the arrays broadcast against
    each other and the rows run over their broadcast shape in C order.
    Every cell is a float printed as %.17g. Rows are converted to Python
    floats and written `_CSV_BLOCK` at a time, one %-format call per block.
    """
    head = []
    if prov is not None:
        head.append("# provenance: " + canonical_json(prov))
    for comment in comments:
        head.append("# " + comment)
    head.append(",".join(columns))
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with whole_file(path) as fh:
        fh.write("\n".join(head) + "\n")
        for lo in range(0, arrays[0].size, _CSV_BLOCK):
            fh.write(format_block(row_format, np.column_stack(
                [a.flat[lo:lo + _CSV_BLOCK] for a in arrays])))


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
    with whole_file(path) as fh:
        json.dump(_strict(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")
