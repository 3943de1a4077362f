"""vortexcorr benchmark: the `laws`, `frames` and `verify` workloads.

usage: python3 perfbench/run.py --workload {laws,frames,verify}
           --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Every job (one CLI command or one
library call) runs in a fresh Python process, one at a time, because CLI
users pay the per-process costs on every call. Inside the job process the
import of `vortexcorr.cli` is timed as set-up and the call itself as the
command time. A run repeats whole passes over the workload's job list
until `--seconds` have elapsed (at least one pass) and reports medians
over passes. Every job's outputs are checked; a job fails if it exits
non-zero or fails a check.

With `--trace 0` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the jobs run with spans recorded around
every traced public function (see tracing.py) and the line holds the
per-layer metrics. Earlier lines print every metric by name, including
the per-command times. Each run's record, with the machine and settings
it ran on, goes to perfbench/results/; a traced run's spans go there too.
See perfbench/README.md for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

from tracing import TARGETS, add_count, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "out")
RESULTS = os.path.join(BENCH_DIR, "results")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_SETUP_SAMPLES = 3     # import-only probes top each run up to this
RUN_DEADLINE_S = 170.0    # no job or pass starts that could end after this
# Three sizes are kept small so that all three workloads, run 22 times
# each, fit a one-hour benchmark budget on a 2-core machine: `pairdist`
# tabulates 401 points, not its default 801 (the per-point distance
# quadrature halves; the correlator cost it is paired against does not
# change); `frames` draws 500000 frames, not 1000000; `verify` sweeps its
# pair grid at resolution 31, not its default 61 (the sweep grows as
# resolution^4; the engine kernel and oracle angle laws do not depend on
# it).
PAIRDIST_POINTS = 401
FRAME_COUNT = 500_000
VERIFY_RESOLUTION = 31


@dataclass
class Job:
    """One process: a `vortexcorr.cli.main(argv)` call, or `load_frames`
    on the frames.csv written by job number `load`."""
    metric: str               # the command-time metric this job adds to
    argv: tuple = None
    load: int = None
    expect: tuple = ()        # output files that must exist and pass checks
    same_frames_as: int = None  # job whose frames.csv must be byte-identical


def workload_jobs(workload, seed, nproc):
    """The job list of one pass; the seed is the only source of variation."""
    if workload == "laws":
        jobs = [
            Job("pairdist_s", ("pairdist", "--state", "thermal", "--points",
                               str(PAIRDIST_POINTS)),
                expect=("pairdist_summary.json",)),
            Job("pairdist_s", ("pairdist", "--state", "fermi-fock",
                               "--points", str(PAIRDIST_POINTS)),
                expect=("pairdist_summary.json",)),
            Job("pairangle_s", ("pairangle", "--state", "cothermal"),
                expect=("pairangle_summary.json",)),
            Job("pairangle_s", ("pairangle", "--state", "bose-fock"),
                expect=("pairangle_summary.json",)),
            Job("pairangle_s", ("pairangle", "--state", "coherent"),
                expect=("pairangle_summary.json",)),
            Job("two_angle_s", ("pairdist", "--state", "noon", "--two-angle"),
                expect=("two_angle_summary.json",)),
            Job("profile_s", ("profile", "--state", "fermi-fock"),
                expect=("profile_summary.json",)),
        ]
        random.Random(seed).shuffle(jobs)
        return jobs
    if workload == "frames":
        argv = ("frames", "--state", "fermi-fock", "--count", str(FRAME_COUNT),
                "--seed", str(seed), "--stats", "--threads")
        expect = ("frames.csv", "frames_stats.json")
        return [Job("frames_s", argv + ("1",), expect=expect),
                Job("frames_threads_s", argv + (str(nproc),), expect=expect,
                    same_frames_as=0),
                Job("load_frames_s", load=0)]
    if workload == "verify":
        return [Job("verify_s", ("verify", "--resolution",
                                 str(VERIFY_RESOLUTION)),
                    expect=("verify_report.json",))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("laws", "frames", "verify")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_summary(name, data):
    """Problems with one JSON output; NaN fails every bound."""
    if not isinstance(data, dict):
        return ["not a JSON object"]
    problems = []
    if "closed_form_sup_deviation" in data:
        dev = data["closed_form_sup_deviation"]
        if not (isinstance(dev, (int, float)) and dev < 1e-6):
            problems.append(f"closed_form_sup_deviation {dev!r} >= 1e-6")
    if name == "pairdist_summary.json":
        moment = data.get("second_moment")
        if not (isinstance(moment, (int, float)) and abs(moment - 4.0) <= 1e-6):
            problems.append(f"second_moment {moment!r} is not 4 within 1e-6")
    if name == "frames_stats.json":
        z = data.get("mean_distance_z")
        if not (isinstance(z, (int, float)) and abs(z) < 5.0):
            problems.append(f"|mean_distance_z| {z!r} is not below 5")
    if name == "verify_report.json":
        gating = [r for r in data.get("reports", ()) if isinstance(r, dict)
                  and r.get("gating")]
        open_rows = [r.get("claim_id") for r in gating
                     if r.get("verdict") != "Confirmed"]
        if not gating or open_rows \
                or data.get("all_engine_checks_confirmed") is not True:
            problems.append(f"gating rows not all Confirmed: {open_rows}")
    return problems


def check_outputs(out_dir, expect):
    """Problems with a job's expected output files; empty when all pass."""
    problems = []
    for name in expect:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
        elif name.endswith(".json"):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"{name} unreadable: {exc}")
                continue
            problems += [f"{name}: {p}" for p in check_summary(name, data)]
    return problems


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_frames_rerun(seed, digest):
    """Problems if an earlier run in this checkout wrote different frames
    for the same seed and count; records the digest otherwise."""
    path = os.path.join(RESULTS, "frames-digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            known = json.load(fh)
    previous = known.setdefault(f"{FRAME_COUNT}-{seed}", digest)
    if previous != digest:
        return [f"frames.csv differs from an earlier run with seed {seed}"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return []


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def machine_record(seed, nproc, env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "output_filesystem": filesystem_of(WORK),
    }


def filesystem_of(path):
    """Type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


class Runner:
    """Starts one job process at a time under a fixed environment."""

    def __init__(self, env, trace, deadline):
        self.env = env
        self.trace = trace
        self.deadline = deadline

    def spawn(self, tag, out_dir, **job):
        """Run job.py; returns (report or None, wall seconds, log text)."""
        os.makedirs(out_dir, exist_ok=True)
        result = os.path.join(out_dir, tag + ".report.json")
        spec = dict(job, src=SRC, result=result, trace=self.trace)
        log_path = os.path.join(out_dir, tag + ".log")
        timeout = max(1.0, self.deadline - time.perf_counter())
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "job.py"),
                 json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - start
        report = None
        if code == 0 and os.path.exists(result):
            with open(result, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        with open(log_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if code is None:
            text += f"\nkilled after {timeout:.0f} s"
        return report, wall, text

    def probe(self, index):
        """One import-only process; returns its set-up seconds."""
        report, _, text = self.spawn(f"probe{index}",
                                     os.path.join(WORK, "probes"))
        if report is None:
            raise RuntimeError("set-up probe failed:\n" + text[-2000:])
        return report["setup_s"]


def run_pass(runner, jobs, seed):
    """Run the job list once; returns one record per job."""
    records = []
    for index, job in enumerate(jobs):
        out_dir = os.path.join(WORK, f"job{index}")
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        request = {}
        if job.argv is not None:
            request["argv"] = list(job.argv) + ["--out", out_dir]
        else:
            request["load"] = os.path.join(WORK, f"job{job.load}",
                                           "frames.csv")
        report, wall, log = runner.spawn("job", out_dir, **request)
        problems = []
        if report is None:
            problems.append("job process failed:\n" + log[-2000:])
        elif report["exit"] != 0:
            problems.append(f"exit code {report['exit']}:\n" + log[-2000:])
        elif report.get("check_error"):
            problems.append(report["check_error"])
        problems += check_outputs(out_dir, job.expect)
        if job.same_frames_as is not None:
            problems += compare_frames(
                os.path.join(WORK, f"job{job.same_frames_as}"), out_dir,
                seed)
        check_s = report.get("check_s", 0.0) if report else 0.0
        records.append({"job": index, "metric": job.metric,
                        "argv": list(job.argv) if job.argv else None,
                        "wall_s": wall - check_s, "report": report,
                        "problems": problems})
        if job.load is not None:
            remove(os.path.join(WORK, f"job{job.load}", "frames.csv"))
    return records


def compare_frames(first_dir, second_dir, seed):
    """frames.csv of both jobs must match byte for byte, and match what
    earlier runs with this seed wrote; the second copy is deleted."""
    first = os.path.join(first_dir, "frames.csv")
    second = os.path.join(second_dir, "frames.csv")
    if not (os.path.isfile(first) and os.path.isfile(second)):
        return ["frames.csv missing for the byte comparison"]
    digest = file_digest(first)
    problems = []
    if file_digest(second) != digest:
        problems.append("frames.csv differs between thread counts")
    remove(second)
    return problems + check_frames_rerun(seed, digest)


def remove(path):
    if os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_metrics(records):
    """End-to-end figures of one pass: wall, summed command times, and
    the command time of each command metric."""
    figures = {"wall_s": sum(r["wall_s"] for r in records),
               "command_s": 0.0}
    for r in records:
        command = r["report"]["command_s"] if r["report"] else 0.0
        figures[r["metric"]] = figures.get(r["metric"], 0.0) + command
        figures["command_s"] += command
    return figures


def traced_command_times(records):
    """Root-span duration of each job, summed per command metric."""
    times = {}
    for r in records:
        spans = r["report"]["spans"] if r["report"] else []
        root = spans[0][3] - spans[0][2] if spans else 0.0
        times[r["metric"]] = times.get(r["metric"], 0.0) + root
    return times


# Names the layer table in README.md gives these figures.
ALIASES = {
    "fock.correlators.self_s": "fock.QuantumState.correlators.self_s",
    "fock.correlators.calls": "fock.QuantumState.correlators.calls",
    "fock.correlators.computed": "fock.QuantumState.correlators.computed",
    "sampler.AngularLaw.init_s": "sampler.AngularLaw.__init__.self_s",
    "sampler.AngularLaw.call_s": "sampler.AngularLaw.__call__.self_s",
    "sampler.AngularLaw.evaluations":
        "sampler.AngularLaw.__call__.evaluations",
    "sampler.proposals": "sampler.generate_frames.proposals",
}


def layer_metrics(records, nproc):
    """Per-layer figures of one traced pass, and the largest gap between a
    job's summed self times and its root span (single-threaded jobs)."""
    self_s = dict.fromkeys(TARGETS, 0.0)
    calls = dict.fromkeys(TARGETS, 0)
    counts = {}
    worst_gap = 0.0
    for r in records:
        if not r["report"]:
            continue
        spans = r["report"]["spans"]
        own = self_times(spans)
        for span, value in zip(spans, own):
            self_s[span[1]] += value
            calls[span[1]] += 1
        if spans and len({s[5] for s in spans}) == 1:
            worst_gap = max(worst_gap,
                            abs(sum(own) - (spans[0][3] - spans[0][2])))
        for key, value in r["report"]["counts"].items():
            add_count(counts, key, value)
    figures = {}
    for name, counters in TARGETS.items():
        figures[name + ".self_s"] = self_s[name]
        figures[name + ".calls"] = calls[name]
        for key in counters:
            figures[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0)
    proposals = figures["sampler.generate_frames.proposals"]
    figures["sampler.acceptance"] = (
        figures["sampler.generate_frames.frames"] / proposals
        if proposals else 0.0)
    for alias, name in ALIASES.items():
        figures[alias] = figures.pop(name)
    times = traced_command_times(records)
    threaded = times.get("frames_threads_s", 0.0)
    figures["cli.frames.scaling"] = (
        times["frames_s"] / (nproc * threaded) if threaded else 0.0)
    figures["trace.wall_s"] = sum(r["wall_s"] for r in records)
    return figures, worst_gap


def median_over(dicts):
    return {key: statistics.median(d[key] for d in dicts)
            for key in dicts[0]}


def bench_digest():
    """Digest of the benchmark's own code, so that results recorded by a
    different version of it are never compared with this one's."""
    digest = hashlib.sha256()
    for name in ("run.py", "job.py", "tracing.py"):
        with open(os.path.join(BENCH_DIR, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def untraced_wall(workload):
    """Median wall_s of the untraced runs of `workload` that this version
    of the benchmark recorded in this checkout, or None."""
    walls = []
    for name in sorted(os.listdir(RESULTS)):
        if name.startswith(workload + "-") and name.endswith("-trace0.json"):
            with open(os.path.join(RESULTS, name), "r",
                      encoding="utf-8") as fh:
                record = json.load(fh)
            if record.get("bench_digest") == bench_digest():
                walls.append(record["metrics"]["wall_s"])
    return statistics.median(walls) if walls else None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        bench = json.load(fh)
    entries = bench["per_layer" if trace else "end_to_end"]
    for entry in entries:
        if not METRIC_NAME.fullmatch(entry["name"]):
            raise ValueError(f"bad metric name {entry['name']!r}")
    return [(e["name"], e["unit"]) for e in entries]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vortexcorr", "cli.py")):
        print(f"perfbench: no vortexcorr sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc))
    env.pop("PYTHONPATH", None)
    machine = machine_record(args.seed, nproc, env)
    if os.path.isdir(WORK):
        shutil.rmtree(WORK)
    os.makedirs(WORK)
    os.makedirs(RESULTS, exist_ok=True)
    runner = Runner(env, args.trace, started + RUN_DEADLINE_S)
    jobs = workload_jobs(args.workload, args.seed, nproc)

    try:
        runner.probe("warmup")   # compiles bytecode; users pay that once
        setup = [runner.probe(i)
                 for i in range(max(0, MIN_SETUP_SAMPLES - len(jobs)))]
        baseline_wall = None
        if args.trace and untraced_wall(args.workload) is None:
            untraced = Runner(env, 0, runner.deadline)
            baseline_wall = pass_metrics(
                run_pass(untraced, jobs, args.seed))["wall_s"]
        passes = []
        while not passes or time.perf_counter() - started < args.seconds:
            pass_start = time.perf_counter()
            passes.append(run_pass(runner, jobs, args.seed))
            last = time.perf_counter() - pass_start
            if time.perf_counter() + last > started + RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    records = [r for records in passes for r in records]
    failures = [(r["job"], p) for r in records for p in r["problems"]]
    setup += [r["report"]["setup_s"] for r in records if r["report"]]
    detail = {"passes": len(passes),
             "jobs": [{k: r[k] for k in ("job", "metric", "argv", "wall_s",
                                         "problems")} for r in records]}
    if args.trace:
        per_pass = [layer_metrics(p, nproc) for p in passes]
        metrics = median_over([figures for figures, _ in per_pass])
        gap = max(g for _, g in per_pass)
        if gap > 1e-6:
            failures.append((None, f"span self times miss the command time "
                                   f"by {gap:.3g} s"))
        untraced = untraced_wall(args.workload) or baseline_wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        detail["self_time_gap_s"] = gap
        spans = [{"pass": k, "job": r["job"], "metric": r["metric"],
                  "spans": r["report"]["spans"]}
                 for k, p in enumerate(passes) for r in p if r["report"]]
        write_record(args, "spans", spans)
    else:
        metrics = median_over([pass_metrics(p) for p in passes])
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = max(
            (r["report"]["maxrss_kb"] for r in records if r["report"]),
            default=0) / 1024.0
        detail["setup_samples"] = setup

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    detail["error_rate"] = failed / attempted
    correct = not failures
    write_record(args, f"trace{args.trace}",
                 {"workload": args.workload, "bench_digest": bench_digest(),
                  "machine": machine,
                  "correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics, "detail": detail,
                  "failures": [list(f) for f in failures]})

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for job, problem in failures:
        print(f"FAILED job {job}: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} pass(es), {attempted} jobs, "
          f"{failed} failed, error_rate {failed / attempted:g}")
    units = dict(declared)
    for name in sorted(metrics):
        n = len(setup) if name == "setup_s" else len(passes)
        print(f"  {name:<44} {metrics[name]:>14.6g} "
              f"{units.get(name, unit_of(name)):<6} (median of {n})")
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        raise KeyError(f"declared metrics not computed: {missing}")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared}}
    print(json.dumps(line))
    return 0


def unit_of(name):
    """Unit of a figure that BENCHMARK.json does not declare."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("acceptance", "scaling")):
        return "ratio"
    return "count"


def write_record(args, kind, payload):
    path = os.path.join(RESULTS,
                        f"{args.workload}-seed{args.seed}-{kind}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
