"""The pure parts of tools/bench_pairs.py, on synthetic perfbench records:
the run order, the pairing, quartiles, the split by run order, the
verdicts, the per-pass figures and the BENCH file layout."""

import importlib.util
import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _jobs(walls, metrics=("a_s", "b_s")):
    """detail.jobs of a record: one pass per entry of `walls`, each pass
    one job per metric, the pass's walls in order."""
    return [{"job": j, "metric": m, "argv": None, "wall_s": w,
             "problems": []}
            for pass_walls in walls
            for j, (m, w) in enumerate(zip(metrics, pass_walls))]


def _record(offset, failed=0, passes=1, walls=None):
    """A perfbench/run.py record whose four metrics are offset + i; each
    pass's jobs take `walls`, (offset, 1) by default."""
    walls = walls or [(offset, 1.0)] * passes
    return {"attempted": 7, "failed": failed,
            "detail": {"passes": passes, "jobs": _jobs(walls)},
            "machine": {"nproc": 2, "seed": 1},
            "metrics": {name: offset + i for i, name
                        in enumerate(bench_pairs.METRICS)}}


def _pairs(parent, change, passes=None):
    """Pairs of records; `passes` gives each pair's (parent, change) pass
    counts, 1 each by default."""
    passes = passes or [(1, 1)] * len(parent)
    return [{"seed": 3201 + k, "first": bench_pairs.first_side(k),
             "parent": _record(p, passes=n), "change": _record(
                 c, failed=k % 2, passes=m)}
            for k, (p, c, (n, m)) in enumerate(zip(parent, change, passes))]


def test_sides_alternate_and_share_seeds():
    assert [bench_pairs.first_side(k) for k in range(5)] == [
        "parent", "change", "parent", "change", "parent"]
    assert bench_pairs.seeds(0, 3, 3200) == [3201, 3202, 3203]
    assert bench_pairs.seeds(2, 2, 3200) == [3401, 3402]


def test_quartiles_follow_numpy_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    assert bench_pairs.quartiles(values) == {
        "median": median, "q1": q1, "q3": q3}
    assert bench_pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0,
                                           "q3": 2.0}


def test_pairs_are_won_by_a_lower_figure_and_ties_count_for_neither():
    assert bench_pairs.pairs_won([3.0, 2.0, 1.0, 5.0],
                                 [2.0, 2.0, 1.5, 4.0]) == 2


def test_order_split_separates_the_side_run_first():
    parent, change = [1.0, 1.0, 1.0, 1.0], [0.9, 1.3, 0.7, 1.1]
    order = ["parent", "change", "parent", "change"]
    assert bench_pairs.order_split(parent, change, order) == {
        "parent_first": pytest.approx(-0.2), "change_first": 0.2}
    assert bench_pairs.order_split([1.0], [2.0], ["parent"]) == {
        "parent_first": 1.0, "change_first": None}


def test_summary_pairs_runs_by_seed():
    entry = bench_pairs.summarize(_pairs([10.0, 11.0, 12.0], [9.0, 12.0,
                                                             11.0]),
                                  bench_pairs.read_bounds())
    assert entry["seeds"] == [3201, 3202, 3203]
    assert entry["order"] == ["parent", "change", "parent"]
    assert entry["failed_jobs"] == {"parent": 0, "change": 1}
    assert entry["attempted_jobs"] == {"parent": 21, "change": 21}
    assert entry["passes"] == {"parent": [1, 1, 1], "change": [1, 1, 1]}
    wall = entry["metrics"]["wall_s"]
    assert wall["runs"] == {"parent": [10.0, 11.0, 12.0],
                            "change": [9.0, 12.0, 11.0]}
    assert wall["pairs_won"] == 2
    assert wall["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    # the i-th metric of a record is offset + i
    assert entry["metrics"]["setup_s"]["runs"]["parent"] == [13.0, 14.0,
                                                             15.0]


def test_summary_adds_setup_and_command_without_a_verdict():
    entry = bench_pairs.summarize(_pairs([10.0, 11.0, 12.0], [9.0, 12.0,
                                                             11.0]),
                                  bench_pairs.read_bounds())
    # command_s is offset + 1 and setup_s offset + 3, so the sum is
    # 2 offset + 4
    total = entry["setup_plus_command_s"]
    assert total["runs"] == {"parent": [24.0, 26.0, 28.0],
                             "change": [22.0, 28.0, 26.0]}
    assert total["pairs_won"] == 2
    assert total["parent"] == {"median": 26.0, "q1": 25.0, "q3": 27.0}
    assert total["change"] == {"median": 26.0, "q1": 24.0, "q3": 27.0}
    assert total["by_order"] == {"parent_first": -2.0, "change_first": 2.0}
    assert "verdict" not in total
    assert "setup_plus_command_s" not in entry["metrics"]


def test_pass_walls_start_a_pass_at_job_zero():
    record = {"detail": {"jobs": _jobs(
        [(0.5, 0.25, 2.0), (0.75, 0.5, 1.0)], ("x_s", "x_s", "y_s"))}}
    assert bench_pairs.pass_walls(record) == [
        {"wall_s": 2.75, "x_s": 0.75, "y_s": 2.0},
        {"wall_s": 2.25, "x_s": 1.25, "y_s": 1.0}]


def test_per_pass_medians_pool_every_pass_of_every_run():
    # the parent takes one slow pass a run, the change three fast ones;
    # the run medians would weigh each change run's passes as one
    parent = [_record(1.0, walls=[(4.0, 1.0)]),
              _record(1.0, walls=[(6.0, 1.0)])]
    change = [_record(1.0, passes=3, walls=[(1.0, 1.0), (2.0, 1.0),
                                            (9.0, 1.0)]),
              _record(1.0, passes=1, walls=[(3.0, 2.0)])]
    pairs = [{"seed": 1 + k, "first": bench_pairs.first_side(k),
              "parent": p, "change": c}
             for k, (p, c) in enumerate(zip(parent, change))]
    figures = bench_pairs.per_pass(pairs)
    assert figures["passes_pooled"] == {"parent": 2, "change": 4}
    assert figures["a_s"]["parent"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert figures["a_s"]["change"] == {"median": 2.5, "q1": 1.75,
                                        "q3": 4.5}
    assert figures["b_s"]["change"] == {"median": 1.0, "q1": 1.0,
                                        "q3": 1.25}
    assert figures["wall_s"]["change"] == {"median": 4.0, "q1": 2.75,
                                           "q3": 6.25}
    entry = bench_pairs.summarize(pairs, bench_pairs.read_bounds())
    assert entry["per_pass"] == figures
    assert "verdict" not in figures["wall_s"]


@pytest.mark.parametrize("passes, differ", [
    ([(3, 3), (3, 3), (3, 3)], False),
    # the medians agree although one pair does not
    ([(3, 3), (3, 4), (3, 3)], False),
    ([(3, 4), (3, 4), (3, 3)], True),
    ([(9, 8), (8, 8), (8, 7)], False),
    ([(9, 7), (8, 8), (8, 7)], True),
])
def test_summary_marks_workloads_whose_median_passes_differ(passes, differ):
    entry = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                         passes), bench_pairs.read_bounds())
    assert entry["passes"] == {"parent": [n for n, _ in passes],
                               "change": [m for _, m in passes]}
    assert entry["passes_differ"] is differ


def test_document_keeps_the_layout_of_bench_25():
    with open(os.path.join(ROOT, "BENCH_25.json"), encoding="utf-8") as fh:
        old = json.load(fh)
    workloads = {name: bench_pairs.summarize(_pairs([1.0, 2.0], [0.5, 2.5]),
                                             bench_pairs.read_bounds())
                 for name in old["workloads"]}
    tier1 = {"command": bench_pairs.TIER1, "unit": "s", "source": "",
             "parent": {"tests": 1, "runs_s": [1.0]},
             "change": {"tests": 1, "runs_s": [1.0]}}
    doc = bench_pairs.document("a" * 40, "b" * 40, workloads,
                               {**old["machine"], **bench_pairs.cpu_dispatch()},
                               tier1)
    # every key of BENCH_25.json's own records is there, at the same depth
    keys = {"benchmark", "method", "parent_commit", "change_commit",
            "machine", "tier1", "workloads"}
    assert keys <= set(doc) and keys <= set(old)
    assert set(old["machine"]) <= set(doc["machine"])
    assert set(old["tier1"]) <= set(doc["tier1"])
    for name, entry in old["workloads"].items():
        assert set(entry) <= set(doc["workloads"][name])
        for metric, figures in entry["metrics"].items():
            ours = doc["workloads"][name]["metrics"][metric]
            assert set(figures) <= set(ours)
            assert set(figures["parent"]) == set(ours["parent"])
            assert set(figures["runs"]) == set(ours["runs"])
    dispatch = doc["machine"]["numpy_cpu_dispatch"]
    assert dispatch and all(isinstance(t, str) for t in dispatch)
    assert "numpy_cpu_features" in doc["machine"]
    assert json.loads(json.dumps(doc)) == doc


_PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize("change, want", [
    # 10 of 10 pairs, and the median 0.2 below, far beyond the spread
    ([p - 0.2 for p in _PARENT], "gain"),
    # 9 of 10 pairs still make a gain
    ([p - 0.2 for p in _PARENT[:9]] + [_PARENT[9] + 0.1], "gain"),
    # 8 of 10 pairs do not, however far the median falls
    ([p - 0.2 for p in _PARENT[:8]] + [p + 0.1 for p in _PARENT[8:]],
     "unchanged"),
    # every pair won, by less than the parent's quartile spread (0.02)
    ([p - 0.01 for p in _PARENT], "unchanged"),
    # the median 26 % above the parent's
    ([p + 0.26 for p in _PARENT], "regression"),
    # 24 % above: within the bound
    ([p + 0.24 for p in _PARENT], "unchanged"),
])
def test_verdict_on_synthetic_pairs(change, want):
    assert bench_pairs.verdict(_PARENT, change, 0.25) == want


def test_verdict_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    parent = [1.0, 0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 1.0, 1.0]
    assert bench_pairs.verdict(parent, parent, 0.25) == "unresolved"
    # a worse median beyond the bound is a regression all the same
    assert bench_pairs.verdict(parent, [p + 0.3 for p in parent],
                               0.25) == "regression"
    assert bench_pairs.verdict(parent, [p - 0.5 for p in parent],
                               0.25) == "gain"


def test_summary_gives_each_metric_its_verdict():
    bounds = bench_pairs.read_bounds()
    assert set(bounds) == set(bench_pairs.METRICS)
    entry = bench_pairs.summarize(
        _pairs(_PARENT, [p + 2.0 for p in _PARENT]), bounds)
    assert {m: f["verdict"] for m, f in entry["metrics"].items()} == {
        m: "regression" for m in bench_pairs.METRICS}
