"""Alternating parent/change pairs of the frozen benchmark, written as a
BENCH_<pr>.json file.

usage: python3 tools/bench_pairs.py --parent REV --change REV --pr N

Run from the root of a git checkout. Each side is exported once with
`git archive` into a temporary directory, and `perfbench/run.py
--workload W --seed S --seconds 10 --trace 0` runs there unchanged.
Before every run the side's `__pycache__` directories and
`perfbench/results/frames-digests.json` are deleted, and every run gets
PYTHONDONTWRITEBYTECODE=1, so that neither side inherits bytecode or
frame digests from an earlier run. Each workload gets 10 pairs; pair k
of workload i uses seed `100 pr + 100 i + k + 1` on both sides; the
parent runs first in even pairs and the change in odd ones, and the
order is recorded. All four end-to-end metrics are lower-is-better; a
pair is won when the change's figure is lower, ties counting for neither
side. Each workload and metric gets a verdict (see `verdict`) against
the metric's bound in BENCHMARK.json, which is only read. Beside them
each workload reports setup_s + command_s per run, with no verdict,
marks whether its sides' median pass counts differ, and gives per-pass
medians of the job walls, pooled over every pass of every run. Last, Tier-1
runs once in each checkout, and the file is written as BENCH_<pr>.json
in the current directory.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")
METRICS = ("wall_s", "command_s", "peak_rss_mb", "setup_s")
SECONDS = 10
WORKLOADS = ("laws", "frames", "verify")
PAIRS = 10
BENCHMARK = ("python3 perfbench/run.py --workload W --seed S "
             f"--seconds {SECONDS} --trace 0")
TIER1 = "PYTHONPATH=src python -m pytest -q -p no:cacheprovider"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_bounds():
    """Each end-to-end metric's bound in BENCHMARK.json: the fraction by
    which the change's median may exceed the parent's."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def first_side(pair):
    """The side that runs first in pair number `pair`, from 0."""
    return SIDES[pair % 2]


def seeds(workload_index, pairs, seed_base):
    return [seed_base + 100 * workload_index + k + 1 for k in range(pairs)]


def quartiles(values):
    """Median and quartiles, as numpy.percentile interpolates them."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float),
                                   [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def pairs_won(parent, change):
    """Pairs in which the change's figure is lower."""
    return sum(c < p for p, c in zip(parent, change))


def verdict(parent, change, bound):
    """`gain` when the change wins at least 9 in 10 pairs and its median
    beats the parent's by more than the parent's quartile spread;
    `regression` when its median is worse than the parent's by more than
    the fraction `bound`; `unresolved` when the parent's quartile spread
    exceeds that fraction of its median; else `unchanged`."""
    q1, median, q3 = np.percentile(np.asarray(parent, dtype=float),
                                   [25, 50, 75])
    ours = float(np.median(change))
    if (10 * pairs_won(parent, change) >= 9 * len(parent)
            and median - ours > q3 - q1):
        return "gain"
    if ours > median * (1.0 + bound):
        return "regression"
    return "unresolved" if q3 - q1 > bound * median else "unchanged"


def order_split(parent, change, order):
    """Median change - parent over the pairs in which each side ran
    first, so that a verdict that follows the run order shows."""
    split = {}
    for side in SIDES:
        gaps = [c - p for p, c, o in zip(parent, change, order) if o == side]
        split[f"{side}_first"] = (round(statistics.median(gaps), 6)
                                  if gaps else None)
    return split


def pass_walls(record):
    """Each pass's figures from a perfbench record's detail.jobs: the
    summed job walls as wall_s and per command metric. A pass starts at
    job 0."""
    passes = []
    for job in record["detail"]["jobs"]:
        if job["job"] == 0:
            passes.append({"wall_s": 0.0})
        figures = passes[-1]
        figures["wall_s"] += job["wall_s"]
        metric = job["metric"]
        figures[metric] = figures.get(metric, 0.0) + job["wall_s"]
    return passes


def per_pass(pairs):
    """Quartiles per side of each pass figure, pooled over all passes of
    all runs: a run's median hides how many passes it took, and the two
    sides of a pair may take different counts."""
    pooled = {s: [f for p in pairs for f in pass_walls(p[s])] for s in SIDES}
    return {"passes_pooled": {s: len(pooled[s]) for s in SIDES},
            **{name: {s: quartiles([f[name] for f in pooled[s]])
                      for s in SIDES}
               for name in sorted(pooled["parent"][0])}}


def _figures(runs, order):
    """Quartiles per side, pairs won, the split by run order and the runs
    of one figure, `runs` mapping each side to its runs in pair order."""
    return {**{s: quartiles(runs[s]) for s in SIDES},
            "pairs_won": pairs_won(runs["parent"], runs["change"]),
            "by_order": order_split(runs["parent"], runs["change"], order),
            "runs": runs}


def summarize(pairs, bounds):
    """A workload's entry of the BENCH file from its pairs, each a dict
    with its "seed", the side that ran "first", and the "parent" and
    "change" records of perfbench/run.py; `bounds` as read_bounds.

    Beside the gated metrics it gives setup_s + command_s, without a
    verdict: where the garbage collector runs moves time between the two.
    `passes_differ` marks a workload whose sides' median pass counts
    differ, so that their per-pass figures are not alike; `per_pass`
    gives those figures' medians over the pooled passes."""
    order = [p["first"] for p in pairs]
    passes = {s: [p[s]["detail"]["passes"] for p in pairs] for s in SIDES}
    entry = {
        "seeds": [p["seed"] for p in pairs],
        "pairs": len(pairs),
        "order": order,
        "failed_jobs": {s: sum(p[s]["failed"] for p in pairs)
                        for s in SIDES},
        "attempted_jobs": {s: sum(p[s]["attempted"] for p in pairs)
                           for s in SIDES},
        "passes": passes,
        "passes_differ": (statistics.median(passes["parent"])
                          != statistics.median(passes["change"])),
        "metrics": {},
    }
    for name in METRICS:
        runs = {s: [round(float(p[s]["metrics"][name]), 6) for p in pairs]
                for s in SIDES}
        entry["metrics"][name] = {
            **_figures(runs, order),
            "verdict": verdict(runs["parent"], runs["change"],
                               bounds[name])}
    entry["setup_plus_command_s"] = _figures(
        {s: [round(float(p[s]["metrics"]["setup_s"])
                   + float(p[s]["metrics"]["command_s"]), 6) for p in pairs]
         for s in SIDES}, order)
    entry["per_pass"] = per_pass(pairs)
    return entry


def cpu_dispatch():
    """What numpy's SIMD dispatch used: output bytes depend on it."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    return {"numpy_cpu_dispatch": list(__cpu_dispatch__),
            "numpy_cpu_features": sorted(k for k, on
                                         in __cpu_features__.items() if on),
            "npy_disable_cpu_features":
                os.environ.get("NPY_DISABLE_CPU_FEATURES", "")}


def document(parent, change, workloads, machine, tier1):
    """The BENCH file, in the layout of BENCH_25.json."""
    return {
        "benchmark": BENCHMARK,
        "method": (
            "pairs of untraced runs by tools/bench_pairs.py: one git-archive "
            "checkout per side with its own perfbench/results/, its "
            "__pycache__ and perfbench/results/frames-digests.json deleted "
            "before each run, PYTHONDONTWRITEBYTECODE=1 on both sides, the "
            "two sides interleaved with alternating order (parent first in "
            "even pairs, `order` lists the side run first); quartiles by "
            "numpy.percentile; a pair is won when the change's figure is "
            "lower; `by_order` is the median change - parent over the pairs "
            "each side ran first; runs lists each side's run medians in "
            "seed order; setup_plus_command_s is setup_s + command_s per "
            "run, with no verdict, since the garbage collector moves time "
            "between the two; passes_differ marks a workload whose sides' "
            "median pass counts differ; per_pass gives quartiles of each "
            "pass's summed job walls (wall_s and per command metric), "
            "pooled over every pass of every run of a side, from each "
            "record's detail.jobs; wall_s sits on the harness's 50 ms wait "
            "grid, so speed claims use command_s; verdict: gain when the "
            "change wins >= 9 in 10 pairs and its median beats the parent's "
            "by more than the parent's quartile spread, regression when its "
            "median is worse by more than the metric's BENCHMARK.json bound "
            "(a fraction of the parent's median), unresolved when the "
            "parent's quartile spread exceeds that bound, else unchanged"),
        "parent_commit": parent,
        "change_commit": change,
        "machine": machine,
        "workloads": workloads,
        "tier1": tier1,
    }


def checkout(rev, dest):
    """`git archive` of `rev` unpacked at `dest`; returns the full hash."""
    full = subprocess.run(["git", "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", full],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tf:
        tf.extractall(dest)
    return full


def clean(root):
    """Delete what an earlier run left that a later one would read."""
    for here, dirs, _ in os.walk(root):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(here, "__pycache__"))
            dirs.remove("__pycache__")
    digests = os.path.join(root, "perfbench", "results",
                           "frames-digests.json")
    if os.path.exists(digests):
        os.remove(digests)


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def run_one(root, workload, seed):
    """One frozen-benchmark run in checkout `root`, and its record."""
    clean(root)
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds",
                    str(SECONDS), "--trace", "0"], cwd=root, env=_env(),
                   check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(root, "perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_tier1(root):
    """Tier-1 in checkout `root`: test count and wall time in seconds."""
    clean(root)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider"], cwd=root,
                          env=dict(_env(), PYTHONPATH="src"),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = done.stdout.strip().splitlines()[-1] if done.stdout else ""
    passed = next((int(w) for w, nxt in zip(tail.split(), tail.split()[1:])
                   if nxt.startswith("passed")), 0)
    return {"tests": passed, "exit": done.returncode,
            "runs_s": [round(wall, 2)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True, type=int)
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        roots = {s: os.path.join(work, s) for s in SIDES}
        commits = {s: checkout(getattr(args, s), roots[s]) for s in SIDES}
        workloads, machine, bounds = {}, None, read_bounds()
        for i, workload in enumerate(WORKLOADS):
            pairs = []
            for k, seed in enumerate(seeds(i, PAIRS, 100 * args.pr)):
                first = first_side(k)
                pair = {"seed": seed, "first": first}
                for side in (first, *(s for s in SIDES if s != first)):
                    pair[side] = run_one(roots[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{m}={pair[side]['metrics'][m]:.6g}"
                                     for m in METRICS), flush=True)
                pairs.append(pair)
                machine = machine or pair["parent"]["machine"]
            workloads[workload] = summarize(pairs, bounds)
        tier1 = {"command": TIER1, "unit": "s",
                 "source": "wall time of one run per checkout, "
                           "PYTHONDONTWRITEBYTECODE=1",
                 **{s: run_tier1(roots[s]) for s in SIDES}}
        machine = {k: v for k, v in machine.items() if k != "seed"}
        doc = document(commits["parent"], commits["change"], workloads,
                       {**machine, **cpu_dispatch()}, tier1)
        with open(f"BENCH_{args.pr}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
