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


def fmt_float(x):
    return "%.17g" % float(x)


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


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return fmt_float(value)


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

    Rows are formatted and written `_CSV_BLOCK` lines at a time.
    """
    head = []
    if prov is not None:
        head.append("# provenance: " + canonical_json(prov))
    for comment in comments:
        head.append("# " + comment)
    head.append(",".join(columns))
    rows = iter(rows)
    with whole_file(path) as fh:
        fh.write("\n".join(head) + "\n")
        while True:
            lines = [",".join(_format_cell(cell) for cell in row)
                     for row in itertools.islice(rows, _CSV_BLOCK)]
            if not lines:
                break
            fh.write("\n".join(lines) + "\n")


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
