"""The scripts beside the package run against it: the benchmark's tracer
and the demos."""

import json
import os
import subprocess
import sys

import pytest

import vortexcorr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def _env():
    """The environment with this checkout's package first on the path,
    which a run in another working directory still finds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        vortexcorr.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# perfbench/tracing.py looks up every traced name by attribute and wraps
# it; a name the package no longer has fails the whole traced job
_TRACED_RUN = """
import contextlib, json, sys
sys.path.insert(0, sys.argv[1])
import vortexcorr.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
out = sys.argv[2]
runs = (["pairdist", "--points", "41"], ["pairangle"],
        ["pairdist", "--state", "noon", "--two-angle"],
        ["profile", "--step", "0.5"],
        ["frames", "--count", "200", "--seed", "1", "--stats"],
        ["verify", "--resolution", "8"])
with contextlib.redirect_stdout(sys.stderr):     # verify prints its table
    codes = [vortexcorr.cli.main(argv + ["--out", out]) for argv in runs]
frames = vortexcorr.sampler.load_frames(out + "/frames.csv")
print(json.dumps({"codes": codes, "frames": frames.count,
                  "spans": sorted({span[1] for span in tracer.spans}),
                  "counts": tracer.counts}))
"""


def test_traced_names_resolve(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, os.path.join(ROOT, "perfbench"),
         str(tmp_path)], env=_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["codes"] == [0] * 6
    assert report["frames"] == 200
    assert {"cli.main", "io.write_csv", "pairstats.angle_distribution",
            "sampler.save_frames", "sampler.load_frames",
            "sampler.chi_square_gof", "oracle.full_report",
            "oracle.pair_grid_sweep",
            "oracle.reference_rho2"} <= set(report["spans"])
    assert report["counts"]["oracle.reference_rho2.points"] > 0


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                         cwd=tmp_path, env=_env(), capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
