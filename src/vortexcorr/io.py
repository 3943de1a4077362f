"""Deterministic file writers with embedded provenance.

Every artifact written by the command line carries the tool version, a hash
of the resolved run configuration, the seed when one is involved and the
state's flags, so a file can always be traced back to the exact run that
produced it. All floats are printed with 17 significant digits (full
round-trip precision); identical inputs produce byte-identical files.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os

from .version import GENERATOR_VERSION, VERSION

TOOL_NAME = "vortexcorr"
_CSV_BLOCK = 65536


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


def write_csv(path, columns, rows, prov=None, comments=()):
    """CSV with '#'-prefixed provenance and comment lines before the header.

    Every cell is a float printed as %.17g. Rows are formatted and written
    `_CSV_BLOCK` lines at a time, one %-format call per block.
    """
    head = []
    if prov is not None:
        head.append("# provenance: " + canonical_json(prov))
    for comment in comments:
        head.append("# " + comment)
    head.append(",".join(columns))
    width = len(columns)
    row_format = ",".join(["%.17g"] * width) + "\n"
    rows = iter(rows)
    with whole_file(path) as fh:
        fh.write("\n".join(head) + "\n")
        while True:
            cells = tuple(itertools.chain.from_iterable(
                itertools.islice(rows, _CSV_BLOCK)))
            if not cells:
                break
            fh.write(row_format * (len(cells) // width) % cells)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
