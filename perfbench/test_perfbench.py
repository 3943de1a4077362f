"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

They need no vortexcorr run: span arithmetic, the metric-name grammar and
the output checks work on hand-made inputs.
"""

import json
import os
import types

import numpy as np
import pytest

import run
from job import check_loaded
from tracing import Tracer, self_times


def span(sid, start, end, parent=None, thread=1, name="s"):
    return [sid, name, start, end, parent, thread]


def test_self_time_nested_and_sibling_spans():
    spans = [span(0, 0.0, 10.0),
             span(1, 1.0, 4.0, parent=0),    # sibling of 2
             span(2, 5.0, 9.0, parent=0),
             span(3, 2.0, 3.0, parent=1),    # nested in 1
             span(4, 6.0, 6.5, parent=2),
             span(5, 7.0, 8.0, parent=2)]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 2.5, 1.0, 0.5, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0.0, 10.0),
             span(1, 1.0, 6.0, parent=0, thread=2),
             span(2, 3.0, 8.0, parent=0, thread=3)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_spans_nest_and_self_times_add_up():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    inner = tracer.wrap(leaf, "m.leaf", {"seen": lambda args, r: args["x"]})

    def outer():
        return inner(1) + inner(2)

    root = tracer.wrap(outer, "m.outer", {})
    assert root() == 5
    names = [s[1] for s in tracer.spans]
    parents = [s[4] for s in tracer.spans]
    assert names == ["m.outer", "m.leaf", "m.leaf"]
    assert parents == [None, 0, 0]
    assert tracer.counts == {"m.leaf.seen": 3}
    total = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(self_times(tracer.spans)) == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("name", ["wall_s", "fock.change_basis.max_dim",
                                  "cli.frames.scaling", "a-b_c.9", "9x"])
def test_metric_name_grammar_accepts(name):
    assert run.METRIC_NAME.fullmatch(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65,
                                  "sampler:x"])
def test_metric_name_grammar_rejects(name):
    assert not run.METRIC_NAME.fullmatch(name)


def test_declared_metrics_follow_the_grammar_and_are_computable():
    for trace in (0, 1):
        names = [n for n, _ in run.declared_metrics(trace)]
        assert len(names) == len(set(names))
    records = [{"job": 0, "metric": "frames_s", "wall_s": 1.0,
                "report": {"spans": [span(0, 0.0, 1.0, name="cli.main")],
                           "counts": {}, "command_s": 1.0}},
               {"job": 1, "metric": "frames_threads_s", "wall_s": 1.0,
                "report": {"spans": [span(0, 0.0, 1.0, name="cli.main")],
                           "counts": {}, "command_s": 1.0}}]
    figures, gap = run.layer_metrics(records, nproc=2)
    figures["trace.overhead_s"] = 0.0
    assert gap == pytest.approx(0.0)
    assert figures["cli.frames.scaling"] == pytest.approx(0.5)
    assert {n for n, _ in run.declared_metrics(1)} <= set(figures)
    end_to_end = run.pass_metrics(records)
    end_to_end.update(setup_s=0.1, peak_rss_mb=1.0)
    assert {n for n, _ in run.declared_metrics(0)} <= set(end_to_end)


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def test_summary_checks_pass_good_and_fail_corrupted_outputs(tmp_path):
    good = {"second_moment": 4.0 + 1e-9, "closed_form_sup_deviation": 1e-9}
    write_json(tmp_path / "pairdist_summary.json", good)
    assert run.check_outputs(tmp_path, ["pairdist_summary.json"]) == []

    for bad in ({"second_moment": 4.1}, {"second_moment": float("nan")},
                dict(good, closed_form_sup_deviation=1e-3), [good]):
        write_json(tmp_path / "pairdist_summary.json", bad)
        assert run.check_outputs(tmp_path, ["pairdist_summary.json"])

    text = json.dumps(good)
    (tmp_path / "pairdist_summary.json").write_text(text[:len(text) // 2])
    assert run.check_outputs(tmp_path, ["pairdist_summary.json"])
    assert run.check_outputs(tmp_path, ["pairangle_summary.json"])


def test_verify_and_frames_stats_checks():
    rows = [{"claim_id": "a", "gating": True, "verdict": "Confirmed"},
            {"claim_id": "b", "gating": False, "verdict": "Typo-suspected"}]
    report = {"all_engine_checks_confirmed": True, "reports": rows}
    assert run.check_summary("verify_report.json", report) == []
    rows[0]["verdict"] = "Typo-suspected"
    assert run.check_summary("verify_report.json", report)
    assert run.check_summary("frames_stats.json", {"mean_distance_z": 1.0}) \
        == []
    assert run.check_summary("frames_stats.json", {"mean_distance_z": -7.0})


def write_frames(path, points):
    lines = ["#vortexcorr-frames {}", "frame_index,x1,y1,x2,y2"]
    lines += ["%d,%.17g,%.17g,%.17g,%.17g" % (i, *p.ravel())
              for i, p in enumerate(points)]
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_frames_file_fails_the_frames_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    points = np.random.default_rng(1).normal(size=(50, 2, 2))
    frames = types.SimpleNamespace(count=50, points=points)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    write_frames(first / "frames.csv", points)
    assert check_loaded(frames, first / "frames.csv") is None

    write_frames(second / "frames.csv", points)
    assert run.compare_frames(first, second, seed=3) == []

    corrupted = points.copy()
    corrupted[17, 1, 0] = np.nextafter(corrupted[17, 1, 0], 1.0)
    write_frames(second / "frames.csv", corrupted)
    assert run.compare_frames(first, second, seed=3) == [
        "frames.csv differs between thread counts"]
    assert not os.path.exists(second / "frames.csv")

    write_frames(first / "frames.csv", corrupted)
    assert check_loaded(frames, first / "frames.csv")
    write_frames(second / "frames.csv", corrupted)
    assert run.compare_frames(first, second, seed=3) == [
        "frames.csv differs from an earlier run with seed 3"]

    write_frames(first / "frames.csv", points[:40])
    assert check_loaded(frames, first / "frames.csv")
