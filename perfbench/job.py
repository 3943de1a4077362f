"""Run one benchmark job in this fresh process and report its timings.

usage: python3 job.py SPEC_JSON

SPEC_JSON holds `src` (the directory vortexcorr is imported from),
`result` (where the report is written), `trace` (0 or 1) and the job:
`argv` for a `vortexcorr.cli.main` call, `load` for a
`vortexcorr.sampler.load_frames` call on that path, or neither for an
import-only set-up probe. The report holds `setup_s` (the time to import
`vortexcorr.cli`), `command_s`, `exit`, `maxrss_kb`, the spans and counts
of a traced job, and for `load` the seconds and outcome of the check that
the loaded points are exactly the ones in the file.

Nothing but the standard library is imported before the timed import, so
`setup_s` holds all of numpy's and scipy's import cost.
"""

import json
import os
import resource
import sys
import time

CHECK_LINES = 100_000


def check_loaded(frames, path):
    """None if `frames` holds exactly the points written in `path`, else
    what differs. Parses the body with Python's correctly rounded float(),
    a different parser from the one load_frames uses."""
    import numpy as np
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        row = 0
        while True:
            lines = fh.readlines(CHECK_LINES * 90)
            if not lines:
                break
            cells = np.array([c for line in lines for c in line.split(",")],
                             dtype=float).reshape(-1, 5)
            stop = row + cells.shape[0]
            if stop > frames.count:
                return f"file has more than {frames.count} frames"
            if not np.array_equal(cells[:, 0], np.arange(row, stop)):
                return f"frame index column broken near line {row + 3}"
            if not np.array_equal(cells[:, 1:].reshape(-1, 2, 2),
                                  frames.points[row:stop]):
                return f"loaded points differ near frame {row}"
            row = stop
    if row != frames.count:
        return f"file has {row} frames, load_frames returned {frames.count}"
    return None


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import vortexcorr.cli
    report = {"setup_s": time.perf_counter() - start}
    source = os.path.realpath(vortexcorr.cli.__file__)
    if not source.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"imported vortexcorr from {source}, "
                         f"not from {spec['src']}")

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    if "argv" in spec:
        start = time.perf_counter()
        report["exit"] = vortexcorr.cli.main(spec["argv"])
        report["command_s"] = time.perf_counter() - start
    elif "load" in spec:
        start = time.perf_counter()
        frames = vortexcorr.sampler.load_frames(spec["load"])
        report["command_s"] = time.perf_counter() - start
        report["exit"] = 0
        start = time.perf_counter()
        report["check_error"] = check_loaded(frames, spec["load"])
        report["check_s"] = time.perf_counter() - start

    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
