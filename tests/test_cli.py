"""End-to-end tests for the command line interface.

Each test drives ``main`` with an argv list, so the full parse /
config-merge / dispatch / exit-code path is exercised without spawning
subprocesses.
"""

import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest

from vortexcorr import cli, io, sampler, states
from vortexcorr.cli import (_COMMANDS, KEYS, SETTINGS, RunConfig,
                            build_parser, main, resolve_config)
from vortexcorr.oracle import BOSE_DISTANCE_MEAN, BOSE_DISTANCE_MODES
from vortexcorr.states import KINDS, SpecError, build_state


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
    assert set(prov) == {"tool", "version", "generator", "config_sha256"}
    assert "flags" not in prov
    grid_prov = _provenance(tmp_path / "profile_grid.csv")
    assert grid_prov["config_sha256"] == prov["config_sha256"]
    header, rows = _data_rows(tmp_path / "profile_grid.csv")
    assert header == ["x", "y", "density"]
    assert len(rows) == 31 * 31


@pytest.mark.parametrize("occupations", [("1", "0"), ("0", "1"), ("0", "0")],
                         ids="-".join)
def test_profile_closed_form_follows_the_fermi_occupations(tmp_path,
                                                           occupations):
    n, m = occupations
    assert main(["profile", "--state", "fermi-fock", "--n", n, "--m", m,
                 "--step", "0.3", "--formats", "json",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "profile_summary.json").read_text())
    assert summary["radial_cut_vs_closed_form_sup"] <= 1e-12
    assert abs(summary["total"] - (int(n) + int(m))) < 1e-6


def test_pairdist_bose_summary(tmp_path):
    rc = main(["pairdist", "--state", "bose-fock", "--n", "1", "--m", "1",
               "--points", "201", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "pairdist_summary.json").read_text())
    assert summary["bose-form-corrected"] is True
    assert abs(summary["mean"] - BOSE_DISTANCE_MEAN) < 1e-12
    assert summary["second_moment"] == 4.0
    maxima = summary["local_maxima"]
    assert len(maxima) == 2
    assert abs(maxima[0] - BOSE_DISTANCE_MODES[0]) < 1e-12
    assert abs(maxima[1] - BOSE_DISTANCE_MODES[1]) < 1e-12
    assert summary["closed_form_sup_deviation"] < 1e-6
    header, rows = _data_rows(tmp_path / "pairdist_distribution.csv")
    assert header == ["d", "density", "closed_form"]
    assert len(rows) == 201


@pytest.mark.parametrize("flags, weight", [
    (["--state", "fermi-fock"], 0.0),
    (["--state", "bose-fock", "--n", "1", "--m", "1"], 1.0),
    (["--state", "coherent"], 0.5),
    (["--state", "thermal", "--nbar-a", "1", "--nbar-b", "1"], 2.0 / 3.0)])
def test_summaries_report_bosonic_weight(tmp_path, flags, weight):
    for command in ("pairdist", "pairangle"):
        assert main([command] + flags + ["--points", "32", "--formats",
                                         "json", "--out", str(tmp_path)]) == 0
        summary = json.loads(
            (tmp_path / f"{command}_summary.json").read_text())
        assert summary["bosonic_weight"] == pytest.approx(weight, abs=1e-14)
    # the angle summary is exact at any --points
    assert summary["mean"] == math.pi / 2.0
    assert summary["second_moment"] == pytest.approx(
        math.pi ** 2 / 3.0 + weight - 0.5, rel=0, abs=1e-15)


def test_pairangle_isotropy_is_relative(tmp_path, capsys):
    # the isotropy defect is measured against the correlators' own scale,
    # so large occupations of isotropic states pass
    for flags, code in ((["--state", "cothermal", "--nbar", "1e6"], 0),
                        (["--state", "cothermal", "--alpha", "1e70"], 0),
                        (["--state", "thermal", "--nbar-a", "1e100",
                          "--nbar-b", "1e100"], 0),
                        (["--state", "noon"], 4),
                        (["--state", "coherent", "--alpha-x", "2",
                          "--alpha-y", "0"], 4)):
        assert main(["pairangle"] + flags + ["--points", "16", "--formats",
                                             "json", "--out",
                                             str(tmp_path)]) == code, flags
        assert "Traceback" not in capsys.readouterr().err


def test_no_pairs_refusal_is_relative(tmp_path, capsys):
    # <:N^2:> is refused only as rounding noise of the harmonic matrix M,
    # so weak states keep the laws of their strong counterparts: a
    # coherent state in one dipole mode has w = 3/4 at any amplitude
    weak = ((["pairdist", "--state", "coherent", "--alpha-x", "1e-4",
              "--alpha-y", "0"], "pairdist_summary.json", 0.75),
            (["frames", "--state", "thermal", "--nbar-a", "1e-8",
              "--nbar-b", "1e-8", "--seed", "1", "--count", "200",
              "--stats"], "frames_stats.json", 2.0 / 3.0))
    for i, (argv, name, weight) in enumerate(weak):
        out = tmp_path / str(i)
        assert main(argv + ["--formats", "json", "--out", str(out)]) == 0
        summary = json.loads((out / name).read_text())
        assert summary["bosonic_weight"] == pytest.approx(weight, abs=1e-15)
    for flags in (["--state", "bose-fock", "--n", "1", "--m", "0"],
                  ["--state", "coherent", "--alpha-x", "0", "--alpha-y", "0"],
                  ["--state", "thermal", "--nbar-a", "0", "--nbar-b", "0"]):
        for command in (["pairdist"], ["pairangle"],
                        ["frames", "--seed", "1", "--count", "10"]):
            out = tmp_path / "none"
            assert main(command + flags + ["--out", str(out)]) == 4, flags
            err = capsys.readouterr().err
            assert "no particle pairs" in err and "Traceback" not in err


def test_points_ceiling_checked_before_allocation(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["pairdist", "--points", "1000000000000000"],
                 ["pairangle", "--points", "1000000000000000"],
                 ["pairangle", "--two-angle", "--points", "1000000"]):
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "--points" in err and "Traceback" not in err
        assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 10 ** 15}))
    assert main(["pairdist", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_resolution_ceiling_checked_before_allocation(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    for value in (201, 10 ** 6):
        cfg.write_text(json.dumps({"resolution": value}))
        for argv in (["verify", "--resolution", str(value)],
                     ["verify", "--config", str(cfg)]):
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(out)]) == 2, argv
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, argv
            err = capsys.readouterr().err
            assert "--resolution" in err and "200" in err
            assert "Traceback" not in err
            assert not out.exists()
    args = build_parser().parse_args(["verify", "--resolution", "200"])
    assert resolve_config(args).resolution == 200


# (command and fixed flags, key, refused value, flag the message names)
_MEMORY_CEILINGS = [
    (["frames", "--seed", "1"], "count", 10 ** 12, "--count"),
    (["frames", "--seed", "1", "--stats"], "bins", 10 ** 12, "--bins"),
    (["profile"], "step", 1e-5, "--step"),
    (["profile"], "step", math.nan, "--step"),
    (["profile"], "step", math.inf, "--step"),
    (["profile"], "extent", math.nan, "--extent"),
    (["profile"], "extent", math.inf, "--extent"),
]


@pytest.mark.parametrize("command, key, value, flag", _MEMORY_CEILINGS,
                         ids=[f"{c[3]}={c[2]!r}" for c in _MEMORY_CEILINGS])
def test_memory_ceilings_checked_before_allocation(tmp_path, capsys, command,
                                                   key, value, flag):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))    # NaN / Infinity literals
    for argv in (command + [flag, repr(value)],
                 command + ["--config", str(cfg)]):
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(out)]) == 2, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, argv
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err, argv
        assert not out.exists()


@pytest.mark.parametrize("seed, rc", [("-1", 2), (str(2 ** 64), 2),
                                      ("0", 0), (str(2 ** 64 - 1), 0)])
def test_frames_seed_lies_in_64_bits(tmp_path, capsys, seed, rc):
    # the generator reads the seed modulo 2**64; outside, seeds alias
    out = tmp_path / "out"
    assert main(["frames", "--seed", seed, "--count", "5",
                 "--out", str(out)]) == rc
    assert out.exists() == (rc == 0)
    if rc:
        assert "--seed" in capsys.readouterr().err


def test_memory_ceilings_accept_their_limits(tmp_path):
    parser = build_parser()
    run = resolve_config(parser.parse_args(
        ["frames", "--seed", "1", "--count", "10000000", "--bins", "100000"]))
    assert (run.count, run.bins) == (10 ** 7, 10 ** 5)
    # round(2 extent / step) + 1 grid points per axis: 2048 pass, 2049 not
    run = resolve_config(parser.parse_args(
        ["profile", "--extent", "1023.5", "--step", "1"]))
    assert run.extent == 1023.5
    assert main(["profile", "--extent", "1024", "--step", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# the laws whose CSV carries a closed_form column, per state family in
# its own basis; in the other basis only the Fermi and equal-occupation
# thermal states are the same state and keep theirs
_CLOSED_FORMS = {
    "fermi-fock": {"pairdist", "pairangle", "two-angle"},
    "bose-fock": {"pairdist", "pairangle"},
    "coherent": {"pairdist", "pairangle", "two-angle"},
    "thermal": {"pairangle"},
    "cothermal": set(),
    "noon": {"pairdist", "two-angle"},
}
_BASIS_FREE = {"fermi-fock", "thermal"}
# the canonical specs whose pair density is not rotation invariant, by
# basis: pairangle refuses them
_ANISOTROPIC = {("noon", "vortex"), ("noon", "dipole"),
                ("bose-fock", "dipole"), ("coherent", "vortex"),
                ("cothermal", "vortex")}


@pytest.mark.parametrize("kind", sorted(_CLOSED_FORMS))
def test_closed_form_columns(tmp_path, kind):
    for basis in ("vortex", "dipole"):
        own = basis == states.canonical(kind).basis or kind in _BASIS_FREE
        for law, argv, name in (
                ("pairdist", ["pairdist"], "pairdist_distribution.csv"),
                ("pairangle", ["pairangle"], "pairangle_distribution.csv"),
                ("two-angle", ["pairdist", "--two-angle"],
                 "two_angle_surface.csv")):
            out = tmp_path / basis / law
            rc = main(argv + ["--state", kind, "--basis", basis, "--points",
                              "16", "--formats", "csv", "--out", str(out)])
            if law == "pairangle" and (kind, basis) in _ANISOTROPIC:
                assert rc == 4      # anisotropic: use --two-angle
                continue
            assert rc == 0
            header, _ = _data_rows(out / name)
            assert ("closed_form" in header) == (
                own and law in _CLOSED_FORMS[kind]), (basis, law)


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
    # an imaginary part with an exponent but no mantissa
    assert main(["profile", "--state", "coherent", "--alpha-x", "1+e5i"]
                + out) == 2
    # negative occupation, and thermal occupancies that are negative or not
    # finite
    assert main(["profile", "--state", "bose-fock", "--n", "-1"] + out) == 2
    for nbar in ("-1", "inf", "nan"):
        assert main(["profile", "--state", "thermal", "--nbar-a", nbar]
                    + out) == 2
    # non-numeric entries of a config file
    for entry in ({"state": "bose-fock", "n": "x"},
                  {"state": "bose-fock", "m": "big"},
                  {"state": "thermal", "nbar_a": "abc"},
                  {"state": "coherent", "alpha_x": [1]}):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(entry))
        assert main(["profile", "--config", str(cfg)] + out) == 2, entry
    # verify resolution floor
    assert main(["verify", "--resolution", "4"] + out) == 2
    # large occupations need no Fock-space truncation
    assert main(["profile", "--state", "coherent", "--alpha-x", "3+0i",
                 "--alpha-y", "0+0i"] + out) == 0
    assert main(["profile", "--state", "cothermal", "--alpha", "4"]
                + out) == 0
    assert main(["pairdist", "--state", "thermal", "--nbar-a", "2",
                 "--nbar-b", "2"] + out) == 0
    capsys.readouterr()
    # relative-angle marginal is not defined for an anisotropic state
    assert main(["pairangle", "--state", "noon"] + out) == 4
    assert "--two-angle" in capsys.readouterr().err
    # a flag's value is the next token, even one starting with '-': the
    # tilted coherent state runs, and is as anisotropic as with '='
    for amplitude in (["--alpha-x", "-1+2i"], ["--alpha-x=-1+2i"]):
        assert main(["pairangle", "--state", "coherent", *amplitude]
                    + out) == 4
        assert "--two-angle" in capsys.readouterr().err
    assert main(["pairdist", "--state", "cothermal", "--alpha", "-i"]
                + out) == 0
    # and a negative occupancy reaches the bound that names it
    assert main(["pairdist", "--state", "thermal", "--nbar-a", "-1e-3"]
                + out) == 2
    assert "nbar_a must be in [0, 1e+150]" in capsys.readouterr().err


def test_no_cutoff_option(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(["pairdist", "--state", "thermal", "--cutoff", "40"] + out)
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "thermal", "cutoff": 40}))
    capsys.readouterr()
    assert main(["pairdist", "--config", str(cfg)] + out) == 2
    assert "cutoff" in capsys.readouterr().err


def _assert_finite_outputs(directory):
    for path in directory.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        elif path.suffix == ".csv":
            _, rows = _data_rows(path)
            assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("command", [
    ["pairdist", "--points", "64"], ["pairangle", "--points", "64"],
    ["profile", "--step", "0.5"],
    ["frames", "--seed", "2", "--count", "200", "--stats"]])
def test_large_parameters(tmp_path, capsys, command):
    # correlators that would overflow are refused, naming the parameter
    cases = ((["--state", "thermal", "--nbar-a", "1e6"], 0),
             (["--state", "thermal", "--nbar-a", "1e17"], 0),
             (["--state", "thermal", "--nbar-a", "1e160"], 2),
             (["--state", "coherent", "--alpha-x", "1e160", "--alpha-y", "0"],
              2),
             (["--state", "bose-fock", "--n", str(10 ** 200)], 2))
    for i, (flags, code) in enumerate(cases):
        out = tmp_path / str(i)
        assert main(command + flags + ["--out", str(out)]) == code, flags
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert flags[2][2:].replace("-", "_") in err
            assert not out.exists()
        else:
            _assert_finite_outputs(out)


def test_frames_stats_refuses_zero_count(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["frames", "--count", "0", "--seed", "1", "--stats",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--stats" in err and "Traceback" not in err
    # without --stats an empty run still writes its header-only file
    assert main(["frames", "--count", "0", "--seed", "1",
                 "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["frames.csv"]


@pytest.mark.parametrize("state", [
    ["--state", "coherent", "--alpha-x", "2", "--alpha-y", "0"],
    ["--state", "bose-fock", "--basis", "dipole"],
    ["--state", "noon"]], ids=["coherent-2-0", "bose-fock-dipole", "noon"])
def test_frames_stats_grades_anisotropic_states_by_the_engine_law(tmp_path,
                                                                  state):
    # the folded relative-angle law of every state is
    # (1 + (2w - 1) cos 2 delta) / pi, anisotropic states included
    count = 20000 if "bose-fock" in state else 1000
    assert main(["frames", *state, "--seed", "1", "--count", str(count),
                 "--stats", "--out", str(tmp_path)]) == 0
    stats = json.loads((tmp_path / "frames_stats.json").read_text())
    w = stats["bosonic_weight"]
    _, rows = _data_rows(tmp_path / "frames_angle_hist.csv")
    delta, reference = (np.array([float(r[j]) for r in rows]) for j in (0, 2))
    np.testing.assert_allclose(
        reference, (1.0 + (2.0 * w - 1.0) * np.cos(2.0 * delta)) / math.pi,
        rtol=0, atol=1e-15)
    if "bose-fock" in state:
        # NOON turned by 45 degrees: w = 1/2, not the vortex donut's 1
        assert abs(w - 0.5) < 1e-12
        assert stats["angle_gof"]["pvalue"] > 1e-3


def test_frames_has_no_method_option(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(["frames", "--seed", "1", "--method", "ring"] + out)
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "method": "cartesian"}))
    capsys.readouterr()
    assert main(["frames", "--config", str(cfg)] + out) == 2
    assert "method" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("count", [1, 2])
def test_frames_stats_tiny_count_is_strict_json(tmp_path, count):
    run = subprocess.run(
        [sys.executable, "-m", "vortexcorr", "frames", "--count", str(count),
         "--seed", "4", "--stats", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert run.returncode == 0
    assert run.stderr == ""
    stats = json.loads((tmp_path / "frames_stats.json").read_text(),
                       parse_constant=_refuse_constant)
    for fit in (stats["distance_gof"], stats["angle_gof"]):
        assert fit["dof"] == 0 and fit["bins"] == 1
        assert fit["pvalue"] is None
    assert (stats["mean_distance_z"] is None) == (count == 1)
    assert (stats["mean_distance_se"] is None) == (count == 1)
    assert (stats["bosonic_weight_z"] is None) == (count == 1)
    assert (stats["bosonic_weight_estimate_se"] is None) == (count == 1)


def test_profile_far_grid_is_silent_zero(tmp_path):
    # |x|^2 overflows on this grid; the Gaussian factor's limit is 0 and
    # no warning may reach the user
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "vortexcorr", "profile",
         "--extent", "1e300", "--step", "1e300", "--out", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert run.returncode == 0
    assert run.stderr == ""
    _, rows = _data_rows(tmp_path / "profile_grid.csv")
    assert len(rows) == 9
    assert all(float(row[2]) == 0.0 for row in rows)


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


@pytest.mark.parametrize("out, path", [
    ("/", "/x.csv"), ("//", "/x.csv"), (".", "x.csv"), ("./", "x.csv"),
    ("out", "out/x.csv"), ("out/", "out/x.csv"), ("out//", "out/x.csv")])
def test_out_directory_keeps_the_root(tmp_path, monkeypatch, out, path):
    # only the path is asked for; "/" exists, so nothing is made there
    monkeypatch.chdir(tmp_path)
    cfg = types.SimpleNamespace(out=out, formats=("csv",))
    assert cli._path(cfg, "x.csv") == path


# each command's small run and every file it writes at the default formats
_OUTPUT_RUNS = {
    "profile": (["profile", "--step", "0.5", "--extent", "2"],
                {"profile_grid.csv", "profile_radial_cut.csv",
                 "profile_summary.json", "profile_heatmap.svg"}),
    "pairdist": (["pairdist", "--points", "16"],
                 {"pairdist_distribution.csv", "pairdist_summary.json",
                  "pairdist_overlay.svg"}),
    "pairangle": (["pairangle", "--points", "16"],
                  {"pairangle_distribution.csv", "pairangle_summary.json",
                   "pairangle_overlay.svg"}),
    "two-angle": (["pairdist", "--state", "noon", "--two-angle", "--points",
                   "8"],
                  {"two_angle_surface.csv", "two_angle_summary.json",
                   "two_angle_heatmap.svg"}),
    "frames": (["frames", "--seed", "1", "--count", "50", "--stats"],
               {"frames.csv", "frames_distance_hist.csv",
                "frames_angle_hist.csv", "frames_stats.json",
                "frames_distance.svg", "frames_angle.svg"}),
    "verify": (["verify", "--resolution", "8"], {"verify_report.json"}),
}


@pytest.mark.parametrize("formats", [None, "csv", "json", "svg", "csv,svg"])
@pytest.mark.parametrize("run", sorted(_OUTPUT_RUNS))
def test_each_file_is_written_when_its_suffix_is_selected(tmp_path, capsys,
                                                          run, formats):
    argv, written = _OUTPUT_RUNS[run]
    if formats is not None:
        argv = argv + ["--formats", formats]
        written = {name for name in written
                   if name.rsplit(".", 1)[1] in formats.split(",")}
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    found = {p.name for p in out.iterdir()} if out.exists() else set()
    assert found == written


def test_frames_formats_govern_frames_csv(tmp_path):
    assert main(["frames", "--seed", "1", "--formats", "json", "--out",
                 str(tmp_path)]) == 0
    assert not any(tmp_path.iterdir())
    assert main(["frames", "--seed", "1", "--stats", "--formats", "svg",
                 "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"frames_distance.svg",
                                                    "frames_angle.svg"}


# Runs whose every output file is pinned by its sha256 in _PINNED_DIGESTS.
# Every file's provenance carries GENERATOR_VERSION, so all of them were
# re-pinned at ring-sampler-3; outside the frames-fermi run the files differ
# from the ring-sampler-2 ones in that string only. A deliberate change of a
# format, of the version strings or of a law re-pins them. The densities
# from (m, M) moved last digits of the profile files, of the thermal
# distance law and of the fermi distance histogram's reference column and
# chi-square, which were re-pinned then; frames.csv kept its bytes.
_PINNED_RUNS = {
    "profile": ["profile"],
    "pairdist-thermal": ["pairdist", "--state", "thermal"],
    "pairangle-cothermal": ["pairangle", "--state", "cothermal"],
    "two-angle-noon": ["pairdist", "--state", "noon", "--two-angle"],
    "frames-fermi": ["frames", "--state", "fermi-fock", "--count", "3000",
                     "--seed", "5", "--stats"],
}
_PINNED_DIGESTS = {
    "profile/profile_grid.csv":
        "abe539418f52d88db994bf0673f76e29e8f65dd1104fc049ca15094996bd6d8d",
    "profile/profile_heatmap.svg":
        "d65be13dd8a057c7ae3131f5b9877cff2f7a6d51c357bc9d629461a6bab4bc9c",
    "profile/profile_radial_cut.csv":
        "108588351c7442238325083b27d22726ec94b5f8ed9fa985df9643983d76dbac",
    "profile/profile_summary.json":
        "2c111c463011e097bbdf69a706f59d1291b8b61bda975d454a529aec9f20a1ed",
    "pairdist-thermal/pairdist_distribution.csv":
        "027d29ecd90a955b0bf287e43780d6888dc305382c0f6a091f8533f16891f05a",
    "pairdist-thermal/pairdist_overlay.svg":
        "8fcf5fb03cff9c76201ba407617ed10754d0df8ec5dfcf417b2cd65ceb37bc35",
    "pairdist-thermal/pairdist_summary.json":
        "4a1b86a7aa047cf925c8e7258fe39cd5e4231c542e6c979cc802fa79094b09a7",
    "pairangle-cothermal/pairangle_distribution.csv":
        "fc9e9e129f7e8b03d18e6c3ad70077b6c5ecf15431dc77c4268ac51c2134daa2",
    "pairangle-cothermal/pairangle_overlay.svg":
        "fc8cc2b97d2ba8b72d520a16b7a0bd604a8626e9f28205c42e0be4be93e912ae",
    "pairangle-cothermal/pairangle_summary.json":
        "16a36b7b396b13b59a5b4fdd30201f1b772b541b36ded7bd49b8ca66ba259ca3",
    "two-angle-noon/two_angle_heatmap.svg":
        "220e72c6014474463d282e0db75c1875a55a131c264d31b0dbdfdd34e55cfd94",
    "two-angle-noon/two_angle_summary.json":
        "8787aefbfd50932d8ee0565ee76ae8dbee88da52a42463a87e789ab0f26d6e0a",
    "two-angle-noon/two_angle_surface.csv":
        "7ab11c0c33b89abd32edd8d5fe04c9a5befb17db6a6c5b8e6fe867a440f0810c",
    "frames-fermi/frames.csv":
        "83b61e385a96ed87c7331ad016e5f5bfb38a805978ab35a443f4a465fcdaa0d8",
    "frames-fermi/frames_angle.svg":
        "50b26c14285341eb43834e82cb45e8206e86f2ae3e04f30b068d23246551bab8",
    "frames-fermi/frames_angle_hist.csv":
        "b3001f920ea5dbddf098cdf1d91ee103682d66719765c626fcec06a8ec6f4692",
    "frames-fermi/frames_distance.svg":
        "caa0c57353570cf7510249b27209e42c7b9d83c5af67da5b34b2736c00040da5",
    "frames-fermi/frames_distance_hist.csv":
        "0770f53be840cfa55b3d220aa89bf82f75a4db6ae92ecb4052d5da261f3aa944",
    "frames-fermi/frames_stats.json":
        "78fd843aea248ab401e1cfc7045b56efb8c85cde985a99ce0fcd7b9f6b28aa47",
}


@pytest.mark.parametrize("run", sorted(_PINNED_RUNS))
def test_output_bytes_are_pinned(tmp_path, run):
    assert main(_PINNED_RUNS[run] + ["--out", str(tmp_path)]) == 0
    written = {f"{run}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == {key: digest for key, digest in _PINNED_DIGESTS.items()
                       if key.startswith(run + "/")}


_FERMI = {"kind": "fermi-fock", "basis": "vortex", "n": 1, "m": 1}
# the resolved run of each command's defaults, and of the switches that
# change a law's grid or the outputs: what provenance hashes, and its hash
_PINNED_PAYLOADS = {
    "profile": (
        ["profile"], {"step": 0.05, "extent": 6.0},
        "aba9260dbdbc2f646ee61d271c4ae0e4e7b7eb3813bb45f77780933d62e72c0a"),
    "pairdist": (
        ["pairdist"], {"points": 801, "two_angle": False},
        "b177f4e650b69f763551ad9e86a5035b032c89ea68e1662984f9563d10d47b3a"),
    "pairangle": (
        ["pairangle"], {"points": 361, "two_angle": False},
        "d693594fa3d70b6cf0f683976c43bd78ebcd41ed33aaec39cecc90a8d8640c97"),
    "pairdist-two-angle": (
        ["pairdist", "--two-angle"], {"points": 180, "two_angle": True},
        "89787d6d5be1f76bb47d5b061b5894fd5aee8d85c77e281b37e8fed6fe728dcf"),
    "pairangle-two-angle": (
        ["pairangle", "--two-angle"], {"points": 180, "two_angle": True},
        "8b0109a1b3204c799e26663195ed9377b49b5955e504072ae66d801a8d192f43"),
    "frames": (
        ["frames", "--seed", "1"],
        {"seed": 1, "count": 1000, "stats": False, "bins": 64},
        "359482f8d15e3a6afbd7d9e9178485e000c8c53daf2131e058dac3b90e361bff"),
    "frames-stats": (
        ["frames", "--seed", "1", "--stats"],
        {"seed": 1, "count": 1000, "stats": True, "bins": 64},
        "e3d155ddb2e49f2e11b6bb89a70f0f1ca0b21710496caed6e89b9c44e2eaf57e"),
    "verify": (
        ["verify"], {"resolution": 61},
        "ed68700a60830d43f745d9f013d957ea96636d22ad080deeac6dba55fc918350"),
}


@pytest.mark.parametrize("run", sorted(_PINNED_PAYLOADS))
def test_run_payloads_are_pinned(run):
    argv, knobs, digest = _PINNED_PAYLOADS[run]
    cfg = resolve_config(build_parser().parse_args(argv))
    expected = {"command": argv[0]}
    if argv[0] != "verify":
        expected["state"] = _FERMI
    expected.update(knobs)
    assert cfg.payload() == expected
    assert cfg.prov()["config_sha256"] == digest


def test_frames_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    # 1000-frame sampling and write blocks (5000 cells of 5 columns):
    # --threads 2 and 3 sample in threads, and the body is formatted in
    # three blocks
    monkeypatch.setattr(io, "_CELLS", 5000)
    monkeypatch.setattr(cli, "generate_frames", functools.partial(
        sampler.generate_frames, block=1000))
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


def test_cli_import_leaves_out_thread_pool():
    # only frames with more than one thread needs concurrent.futures, which
    # would bring logging and queue into every command
    loaded = _fresh_modules("import vortexcorr.cli")
    assert "concurrent" not in loaded and "logging" not in loaded
    assert "vortexcorr" in loaded


def test_config_hash_leaves_out_openssl(tmp_path):
    # hashlib would load OpenSSL's libcrypto for one small digest
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256 module in this Python")
    loaded = _fresh_modules(
        "from vortexcorr.cli import main; "
        "assert main(['pairdist', '--points', '64', '--formats', 'json', "
        f"'--out', {str(tmp_path)!r}]) == 0")
    assert "_hashlib" not in loaded
    assert "vortexcorr" in loaded
    summary = json.loads((tmp_path / "pairdist_summary.json").read_text())
    payload = {"command": "pairdist", "state": _FERMI, "points": 64,
               "two_angle": False}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert summary["provenance"]["config_sha256"] == hashlib.sha256(
        text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", [
    ["profile"], ["pairdist"], ["pairangle"],
    ["frames", "--seed", "1", "--count", "1000"],
    ["verify", "--resolution", "8"]], ids=lambda argv: argv[0])
def test_commands_leave_out_numpy_polynomial(tmp_path, argv):
    # numpy.polynomial is nine modules; the oracle's one-node radial rule
    # needs two constants from it
    code = ("import json, sys; from vortexcorr.cli import main; "
            f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


def test_light_commands_leave_out_argparse_and_the_slot_tables(tmp_path):
    # argv is read from the settings table, and a table of a few hundred
    # cells is printed by % without the kernel's layout tables
    code = ("import json, sys; from vortexcorr import io; "
            "from vortexcorr.cli import main; "
            f"assert main(['pairdist', '--points', '64', '--out', "
            f"{str(tmp_path)!r}]) == 0; "
            "tables = io._slot_tables.cache_info().currsize; "
            f"assert main(['verify', '--resolution', '8', '--out', "
            f"{str(tmp_path)!r}]) == 0; "
            "print(json.dumps([tables, [m for m in ('argparse', 'gettext', "
            "'locale') if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_lists_every_flag(capsys, command):
    argv = [] if command is None else [command]
    for flag in ("--help", "-h", "--he"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        if command is None:
            assert all(c in text for c in _COMMANDS) and "--version" in text
        else:
            flags = {s.flag for s in SETTINGS if command in s.commands}
            assert {w for w in text.split() if w in flags} == flags
            assert "outputs:" in text


def test_flag_forms(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"vortexcorr {cli.VERSION}\n"
    parse = build_parser().parse_args
    # --flag=value, a unique prefix, a value after '=' that holds '='
    args = parse(["pairdist", "--points=16", "--stat", "thermal",
                  "--out=a=b", "--two"])
    assert (args.points, args.state, args.out, args.two_angle) == (
        16, "thermal", "a=b", True)
    assert args.nbar_a is None and args.command == "pairdist"
    # an exact flag wins over the longer flags it prefixes
    assert parse(["pairdist", "--alpha", "1"]).alpha == "1"
    assert parse(["profile", "--step", "-0.5"]).step == -0.5
    monkeypatch.chdir(tmp_path)
    # usage errors exit 2 before any work: an ambiguous prefix, an unknown
    # flag or token, a missing value, a number that does not parse, a
    # value given to a switch, a missing or unknown command
    for argv, message in (
            (["pairdist", "--alph", "1"], "ambiguous option: --alph"),
            (["pairdist", "--n-", "1"], "unrecognized arguments: --n-"),
            (["pairdist", "5"], "unrecognized arguments: 5"),
            (["pairdist", "-p", "5"], "unrecognized arguments: -p"),
            (["pairdist", "--points"], "expected one argument"),
            (["pairdist", "--points", "1.5"], "invalid int value: '1.5'"),
            (["profile", "--step=x"], "invalid float value: 'x'"),
            (["pairdist", "--two-angle=yes"], "ignored explicit argument"),
            ([], "required: command"),
            (["pair"], "invalid choice: 'pair'"),
            (["--bogus"], "unrecognized arguments: --bogus")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: vortexcorr") and message in err, argv
    assert list(tmp_path.iterdir()) == []


def test_long_series_charts_stay_small(tmp_path):
    # charts draw a series longer than the cap at a stride, so their size
    # does not grow with --points or --bins
    assert main(["pairangle", "--points", "200000", "--formats", "svg",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["frames", "--seed", "1", "--count", "1000", "--stats",
                 "--bins", "100000", "--formats", "svg",
                 "--out", str(tmp_path / "b")]) == 0
    for chart in ("a/pairangle_overlay.svg", "b/frames_distance.svg",
                  "b/frames_angle.svg"):
        assert (tmp_path / chart).stat().st_size < 256 * 1024, chart


def test_frames_stats_outputs(tmp_path):
    rc = main(["frames", "--state", "fermi-fock", "--seed", "5",
               "--count", "8000", "--stats", "--bins", "24",
               "--out", str(tmp_path)])
    assert rc == 0
    stats = json.loads((tmp_path / "frames_stats.json").read_text())
    assert stats["count"] == 8000
    assert stats["method"] == "ring"
    assert abs(stats["mean_distance_z"]) < 5.0
    # 1/2 + mean cos 2 delta estimates the engine's bosonic weight, 0 here
    assert stats["bosonic_weight"] == 0.0
    assert abs(stats["bosonic_weight_z"]) < 5.0
    assert stats["bosonic_weight_z"] == pytest.approx(
        stats["bosonic_weight_estimate"]
        / stats["bosonic_weight_estimate_se"], rel=1e-12)
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
    assert len(gating) == 12
    assert all(r["verdict"] == "Confirmed" for r in gating)
    # the tilted coherent state is told apart from the canonical one
    assert {"coherent", "coherent(1,0.5i,vortex)"} <= {r["kind"]
                                                      for r in gating}
    out = capsys.readouterr().out
    assert "engine-vs-reference: 12/12 confirmed -> PASS" in out
    # one printed table row per claim
    assert out.count("Confirmed") >= len(gating)


def test_frames_builds_the_state_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_state(spec):
        calls.append(spec)
        return build_state(spec)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("vortexcorr")
                and getattr(module, "build_state", None) is build_state):
            monkeypatch.setattr(module, "build_state", counting_build_state)
    assert main(["frames", "--seed", "4", "--count", "300", "--stats",
                 "--threads", "2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


# numbers far outside every range a key accepts, and junk of other types
_BAD_VALUES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0,
               0, -1, 2 ** 63, -2 ** 63, 10 ** 400, -10 ** 30, 1e300,
               None, True, False, "", "x", "1e400", "-2i", [], [1, 2], {},
               {"a": 1})
# valid values small enough that a configuration that passes runs fast
_SMALL_VALUES = {"points": (8, 17, 33), "bins": (4, 16),
                 "count": (1, 7, 40), "step": (0.5, 1.0),
                 "extent": (1.0, 2.5), "seed": (0, 5), "threads": (1, 2),
                 "resolution": (8, 9, 12)}


def _fuzzed_config(draw, command):
    """A small valid configuration with one to three keys set to junk or
    to extreme numbers; the keys of _SMALL_VALUES only ever take values
    from the fixed list, so an accepted size stays small."""
    from hypothesis import strategies as st
    keys = [s.name for s in KEYS[command] if s.name not in ("out", "formats")]
    cfg = {key: draw(st.sampled_from(_SMALL_VALUES[key]))
           for key in keys if key in _SMALL_VALUES}
    if command != "verify":     # verify checks every shipped state
        cfg["state"] = draw(st.sampled_from(KINDS))
        # a parameter of another family exits 2 whatever its value
        own = states._FAMILIES[cfg["state"]].parameters
        keys = [key for key in keys
                if key in own or key not in states._PARAMETERS]
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                             unique=True)):
        bad = st.sampled_from(_BAD_VALUES)
        if key not in _SMALL_VALUES:
            bad = st.one_of(bad, st.floats(), st.text(max_size=4))
        cfg[key] = draw(bad)
    return cfg


@pytest.mark.parametrize("command", ["profile", "pairdist", "pairangle",
                                     "frames", "verify"])
def test_fuzzed_config_files_never_escape(command):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        cfg = _fuzzed_config(data.draw, command)
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            rc = main([command, "--config", path, "--formats", "json",
                       "--out", os.path.join(out, "run")])
        assert rc in (0, 2, 3, 4), (cfg, rc)

    check()


# config values of the wrong JSON type, which were once read loosely (a
# string as true, a fraction truncated, a boolean as 0 or 1): each exits 2
# with the message that names its key
_LOOSE_VALUES = [
    (["pairdist"], {"two_angle": "false"}, "bad value for two_angle"),
    (["frames", "--seed", "1"], {"stats": "no"}, "bad value for stats"),
    (["frames"], {"seed": 1.9}, "bad value for seed"),
    (["frames", "--seed", "1"], {"count": True}, "bad value for count"),
    (["verify"], {"resolution": 8.9}, "bad value for resolution"),
    (["pairdist"], {"state": "bose-fock", "n": 1.7, "m": True},
     "n must be a number"),
    (["pairdist"], {"state": "bose-fock", "m": True}, "m must be a number"),
    (["pairangle"], {"points": 16.5}, "bad value for points"),
    (["frames", "--seed", "1"], {"bins": 8.5}, "bad value for bins"),
    (["frames", "--seed", "1"], {"threads": True}, "bad value for threads"),
    (["profile"], {"step": True}, "bad value for step"),
    (["profile"], {"state": "thermal", "nbar_a": False},
     "nbar_a must be a number"),
    (["profile"], {"state": "coherent", "alpha_x": True},
     "cannot parse complex literal True"),
    (["profile"], {"state": "coherent", "alpha_x": "1+e5i"},
     "cannot parse complex literal '1+e5i'"),
    # numbers given as strings
    (["frames"], {"count": "5", "seed": 1}, "bad value for count"),
    (["profile"], {"step": "0.5"}, "bad value for step"),
    (["pairdist"], {"state": "bose-fock", "n": "2"}, "n must be a number"),
]


@pytest.mark.parametrize("argv, entry, message", _LOOSE_VALUES,
                         ids=[json.dumps(c[1]) for c in _LOOSE_VALUES])
def test_config_values_keep_their_json_type(tmp_path, capsys, argv, entry,
                                            message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("out", [5, [1]], ids=json.dumps)
def test_config_out_must_be_a_string(tmp_path, monkeypatch, capsys, out):
    # no --out flag, which would override the entry: a directory named
    # after the value would appear in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": out}))
    assert main(["profile", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert "bad value for out" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_integers_may_be_written_as_whole_floats(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2.0, "count": 5.0, "n": 2.0,
                               "state": "bose-fock"}))
    run = resolve_config(build_parser().parse_args(
        ["frames", "--config", str(cfg)]))
    assert (run.seed, run.count, run.spec.n) == (2, 5, 2)
    assert type(run.seed) is type(run.count) is type(run.spec.n) is int


@pytest.mark.parametrize("command", ["profile", "pairdist", "pairangle",
                                     "verify"])
def test_threads_is_a_frames_setting(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "not understood" in capsys.readouterr().err
    assert not out.exists()


def _flag_values(setting):
    """Values for one flag: inside its bounds, at and just past them, far
    outside, and junk."""
    from hypothesis import strategies as st
    junk = st.one_of(st.sampled_from(("", "x", "--", "-1", "1.5", "1e400",
                                      "nan", "inf", "0x10", "2i")),
                     st.text(max_size=4))
    if setting.type is int:
        lo, hi = setting.bounds or (0, 2 ** 64)
        hi = 2 ** 64 if hi is None else hi
        edges = st.sampled_from((lo - 1, lo, hi, hi + 1, -2 ** 70, 2 ** 70))
        values = st.one_of(st.integers(lo, hi), edges).map(str)
    elif setting.type is float:
        values = st.floats().map(repr)
    elif setting.choices:
        values = st.sampled_from(setting.choices)
    else:   # amplitudes, the output directory and the format list
        values = st.sampled_from(("1", "i", "1+2i", "1e160", "csv",
                                  "json,svg", "gif", "run"))
    return st.one_of(values, values, values, junk)


_ALL_COMMANDS = ["profile", "pairdist", "pairangle", "frames", "verify"]


@pytest.mark.parametrize("command", _ALL_COMMANDS)
def test_fuzzed_flags_resolve_or_refuse(command):
    # argv drawn from the settings table: each draw resolves to values the
    # table's bounds and types admit, or is refused as a configuration error
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    parser = build_parser()
    rows = [s for s in SETTINGS if command in s.commands
            and s.name != "config"]

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        # frames runs need a seed; a drawn --seed overrides this one
        argv = [command] + (["--seed", "1"] if command == "frames" else [])
        for s in data.draw(st.lists(st.sampled_from(rows), max_size=6,
                                    unique=True)):
            argv.append(s.flag)
            # a switch takes no value; now and then it gets a stray one
            if s.type is not bool or data.draw(st.integers(0, 3)) == 0:
                argv.append(data.draw(_flag_values(s)))
        try:
            run = resolve_config(parser.parse_args(argv))
        except SpecError:
            return
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
        assert isinstance(run, RunConfig)
        for s in KEYS[command]:
            if s.group == "state selection":
                continue
            value = getattr(run, s.name)
            if s.type in (bool, int):
                assert type(value) is s.type, (argv, s.name, value)
            if s.bounds:
                lo, hi = s.bounds
                assert lo <= value and (hi is None or value <= hi), argv
        if command == "frames":
            assert 0 <= run.seed < 2 ** 64

    check()
