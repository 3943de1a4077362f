"""End-to-end tests for the command line interface.

Each test drives ``main`` with an argv list, so the full parse /
config-merge / dispatch / exit-code path is exercised without spawning
subprocesses.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from vortexcorr import sampler
from vortexcorr.cli import main
from vortexcorr.oracle import BOSE_DISTANCE_MEAN, BOSE_DISTANCE_MODES


def _data_rows(path):
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0].split(","), [ln.split(",") for ln in body[1:]]


def _provenance(path):
    for line in path.read_text().splitlines():
        if line.startswith("# provenance: "):
            return json.loads(line[len("# provenance: "):])
    raise AssertionError(f"no provenance comment in {path}")


def test_profile_outputs(tmp_path):
    rc = main(["profile", "--state", "fermi-fock", "--out", str(tmp_path),
               "--step", "0.3", "--extent", "4.5"])
    assert rc == 0
    for name in ("profile_grid.csv", "profile_radial_cut.csv",
                 "profile_summary.json", "profile_heatmap.svg"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "profile_summary.json").read_text())
    assert abs(summary["total"] - 2.0) < 1e-6
    assert summary["center_value"] < 1e-12
    assert abs(summary["peak_radius"] - 1.0) < 0.16  # limited by --step 0.3
    assert summary["radial_cut_vs_closed_form_sup"] < 1e-10
    prov = summary["provenance"]
    assert prov["tool"] == "vortexcorr"
    assert len(prov["config_sha256"]) == 64
    assert prov["quadrature"]["radial_order"] > 0
    assert "flags" not in prov
    grid_prov = _provenance(tmp_path / "profile_grid.csv")
    assert grid_prov["config_sha256"] == prov["config_sha256"]
    header, rows = _data_rows(tmp_path / "profile_grid.csv")
    assert header == ["x", "y", "density"]
    assert len(rows) == 31 * 31


def test_pairdist_bose_summary(tmp_path):
    rc = main(["pairdist", "--state", "bose-fock", "--n", "1", "--m", "1",
               "--points", "201", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "pairdist_summary.json").read_text())
    assert summary["bose-form-corrected"] is True
    assert abs(summary["mean"] - BOSE_DISTANCE_MEAN) < 1e-6
    assert abs(summary["second_moment"] - 4.0) < 1e-6
    maxima = summary["local_maxima"]
    assert len(maxima) == 2
    assert abs(maxima[0] - BOSE_DISTANCE_MODES[0]) < 1e-2
    assert abs(maxima[1] - BOSE_DISTANCE_MODES[1]) < 1e-2
    assert summary["closed_form_sup_deviation"] < 1e-6
    header, rows = _data_rows(tmp_path / "pairdist_distribution.csv")
    assert header == ["d", "density", "closed_form"]
    assert len(rows) == 201


def test_flag_overrides_config_per_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "coherent", "points": 64,
                               "out": str(tmp_path / "a")}))
    rc = main(["pairangle", "--config", str(cfg)])
    assert rc == 0
    rc = main(["pairangle", "--config", str(cfg), "--points", "96",
               "--out", str(tmp_path / "b")])
    assert rc == 0
    _, rows_a = _data_rows(tmp_path / "a" / "pairangle_distribution.csv")
    _, rows_b = _data_rows(tmp_path / "b" / "pairangle_distribution.csv")
    assert len(rows_a) == 64      # file value survives for untouched keys
    assert len(rows_b) == 96      # flag wins for the overridden key
    prov_a = _provenance(tmp_path / "a" / "pairangle_distribution.csv")
    prov_b = _provenance(tmp_path / "b" / "pairangle_distribution.csv")
    assert prov_a["config_sha256"] != prov_b["config_sha256"]
    # coherent donut is flat at 1/pi
    vals = [float(r[1]) for r in rows_b]
    assert max(abs(v - 1.0 / math.pi) for v in vals) < 1e-8


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "coherent", "resolution": 15}))
    rc = main(["pairangle", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    # frames without a seed is a configuration error
    assert main(["frames", "--state", "fermi-fock", "--count", "10"]
                + out) == 2
    # double fermionic occupation of one mode
    assert main(["profile", "--state", "fermi-fock", "--n", "2", "--m", "0"]
                + out) == 2
    # unknown output format
    assert main(["profile", "--state", "fermi-fock", "--formats", "gif"]
                + out) == 2
    # unparseable complex amplitude
    assert main(["profile", "--state", "coherent", "--alpha-x", "nope"]
                + out) == 2
    # negative occupation, and thermal occupancies that are negative or not
    # finite
    assert main(["profile", "--state", "bose-fock", "--n", "-1"] + out) == 2
    for nbar in ("-1", "inf", "nan"):
        assert main(["profile", "--state", "thermal", "--nbar-a", nbar]
                    + out) == 2
    # non-numeric entries of a config file
    for entry in ({"state": "bose-fock", "n": "x"},
                  {"state": "thermal", "cutoff": "big"},
                  {"state": "thermal", "nbar_a": "abc"},
                  {"state": "coherent", "alpha_x": [1]}):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(entry))
        assert main(["profile", "--config", str(cfg)] + out) == 2, entry
    # verify resolution floor
    assert main(["verify", "--resolution", "4"] + out) == 2
    # default coherent cutoff cannot hold |alpha|^2 = 9
    assert main(["profile", "--state", "coherent", "--alpha-x", "3+0i",
                 "--alpha-y", "0+0i"] + out) == 3
    capsys.readouterr()
    # default cothermal cutoff cannot hold |alpha|^2 = 16; the message says
    # which cutoff would
    assert main(["profile", "--state", "cothermal", "--alpha", "4"]
                + out) == 3
    assert "cutoff 79 suffices" in capsys.readouterr().err
    # relative-angle marginal is not defined for an anisotropic state
    assert main(["pairangle", "--state", "noon"] + out) == 4
    assert "--two-angle" in capsys.readouterr().err


def test_state_flags_in_provenance(tmp_path):
    rc = main(["pairdist", "--state", "cothermal", "--points", "32",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "pairdist_summary.json").read_text())
    assert summary["provenance"]["flags"] == ["supplement-approximated"]
    assert _provenance(tmp_path / "pairdist_distribution.csv") \
        == summary["provenance"]
    assert "supplement-approximated" in \
        (tmp_path / "pairdist_overlay.svg").read_text()


def test_pairangle_large_fock_occupation(tmp_path):
    # 300 quanta in one mode: the state is its 20 correlators, so nothing
    # grows with the occupation
    rc = main(["pairangle", "--state", "bose-fock", "--n", "300", "--m", "1",
               "--points", "64", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "pairangle_summary.json").read_text())
    assert summary["pair_normalization"] == pytest.approx(300 * 299 + 600)


def test_noon_two_angle_outputs(tmp_path):
    rc = main(["pairangle", "--state", "noon", "--two-angle",
               "--points", "60", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("two_angle_surface.csv", "two_angle_summary.json",
                 "two_angle_heatmap.svg"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "two_angle_summary.json").read_text())
    assert abs(summary["integral"] - 1.0) < 1e-8
    assert summary["closed_form_sup_deviation"] < 1e-6
    header, rows = _data_rows(tmp_path / "two_angle_surface.csv")
    assert header == ["theta_1", "theta_2", "density", "closed_form"]
    assert len(rows) == 60 * 60


def test_formats_filter(tmp_path):
    rc = main(["profile", "--state", "fermi-fock", "--formats", "csv",
               "--out", str(tmp_path), "--step", "0.5", "--extent", "3.0"])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert any(n.endswith(".csv") for n in names)
    assert not any(n.endswith(".json") or n.endswith(".svg") for n in names)


def test_frames_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    # 1000-row write blocks, so --threads 2 and 3 format in processes
    monkeypatch.setattr(sampler, "_WRITE_ROWS", 1000)
    argv = ["frames", "--state", "fermi-fock", "--seed", "11",
            "--count", "3000"]
    for sub, extra in (("a", []), ("b", []), ("c", ["--threads", "3"]),
                       ("d", ["--threads", "2"])):
        assert main(argv + ["--out", str(tmp_path / sub)] + extra) == 0
    blob = (tmp_path / "a" / "frames.csv").read_bytes()
    for sub in "bcd":
        assert (tmp_path / sub / "frames.csv").read_bytes() == blob, sub
    head = blob.decode().splitlines()[0]
    assert head.startswith("#vortexcorr-frames ")
    meta = json.loads(head[len("#vortexcorr-frames "):])
    assert meta["seed"] == 11
    assert meta["count"] == 3000
    assert 0.0 < meta["acceptance_rate"] <= 1.0
    assert meta["provenance"]["config_sha256"]


_TEST_PID = os.getpid()


def _die(start, points):
    """Block formatter that kills the worker process running it."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("blocks were formatted in the test process")
    os._exit(1)


def test_frames_dead_worker_exit_code(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patched formatter and exit at once
    monkeypatch.setattr(sampler, "_WRITE_ROWS", 1000)
    monkeypatch.setattr(sampler, "_format_rows", _die)
    assert main(["frames", "--state", "fermi-fock", "--seed", "1",
                 "--count", "3000", "--threads", "2",
                 "--out", str(tmp_path)]) == 3
    assert "worker process died" in capsys.readouterr().err
    # neither frames.csv nor its partial file is left behind
    assert not list(tmp_path.glob("frames.csv*"))


def _fresh_modules(code):
    """Top-level package names in sys.modules after running `code` in a
    fresh interpreter."""
    code = ("import json, sys; " + code + "; "
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_frames_stats_leaves_out_scipy(tmp_path):
    loaded = _fresh_modules(
        "from vortexcorr.cli import main; "
        "assert main(['frames', '--state', 'fermi-fock', '--count', '2000', "
        f"'--seed', '3', '--stats', '--out', {str(tmp_path)!r}]) == 0")
    assert "scipy" not in loaded
    assert "vortexcorr" in loaded


def test_cli_import_leaves_out_multiprocessing():
    loaded = _fresh_modules("import vortexcorr.cli")
    assert "multiprocessing" not in loaded
    assert "vortexcorr" in loaded


def test_frames_stats_outputs(tmp_path):
    rc = main(["frames", "--state", "fermi-fock", "--seed", "5",
               "--count", "8000", "--stats", "--bins", "24",
               "--out", str(tmp_path)])
    assert rc == 0
    stats = json.loads((tmp_path / "frames_stats.json").read_text())
    assert stats["count"] == 8000
    assert stats["method"] == "ring"
    assert abs(stats["mean_distance_z"]) < 5.0
    assert stats["distance_gof"]["pvalue"] > 1e-6
    assert stats["angle_gof"]["pvalue"] > 1e-6
    for name in ("frames_distance_hist.csv", "frames_angle_hist.csv",
                 "frames_distance.svg", "frames_angle.svg"):
        assert (tmp_path / name).exists()
    header, rows = _data_rows(tmp_path / "frames_distance_hist.csv")
    assert header == ["d", "density", "reference"]
    assert len(rows) == 24


def test_verify_low_resolution(tmp_path, capsys):
    rc = main(["verify", "--resolution", "15", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["all_engine_checks_confirmed"] is True
    assert report["resolution"] == 15
    rows = report["reports"]
    assert len(rows) >= 40
    gating = [r for r in rows if r["gating"]]
    assert len(gating) == 11
    assert all(r["verdict"] == "Confirmed" for r in gating)
    out = capsys.readouterr().out
    assert "engine-vs-reference: 11/11 confirmed -> PASS" in out
    # one printed table row per claim
    assert out.count("Confirmed") >= len(gating)
