"""Acceptance gate: the headline verification matrix.

Each test checks one published statement end to end and prints a single
PASS/FAIL line carrying the governing numbers, so the captured suite
output doubles as a verification report.  Criteria:

  1  one-particle indistinguishability across the state family
  2  fermionic distance law, mean, and mode
  3  corrected bosonic distance law, mean, and twin maxima
  4  coherent distance law and flat angle law
  5  common second moment E[d^2] = 4
  6  sin^2 / cos^2 angle laws plus the printed-label-swap flag
  7  NOON two-angle law and NOON-equals-coherent distances
  8  dipole-to-vortex basis identities
  9  operator-algebra spot checks
  10 million-frame Monte Carlo against the quadrature laws
  11 engine-oracle equivalence sweep and verify exit status
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from vortexcorr.cli import main as cli_main
from vortexcorr.density import rho1, rho2
from vortexcorr.fock import (Basis, Statistics, change_basis, make_fock,
                             make_noon)
from vortexcorr.oracle import (
    BOSE_DISTANCE_MEAN,
    FERMI_DISTANCE_MEAN,
    FERMI_DISTANCE_MODE,
    closed_form_angle,
    closed_form_distance,
    closed_form_two_angle,
    oracle_folded_angle_law,
    oracle_two_angle_law,
)
from vortexcorr.pairstats import (
    angle_distribution,
    distance_distribution,
    summarize,
    two_angle_distribution,
)
from vortexcorr.sampler import (
    chi_square_gof,
    generate_frames,
    pair_angles,
    pair_separations,
    save_frames,
)
from vortexcorr.states import (
    bose_fock,
    build_state,
    coherent,
    fermi_fock,
    noon,
    thermal,
)

FAMILY = ("fermi-fock", "bose-fock", "coherent", "thermal", "noon")


def _spec(name):
    return {"fermi-fock": fermi_fock(), "bose-fock": bose_fock(1, 1),
            "coherent": coherent(), "thermal": thermal(1.0, 1.0),
            "noon": noon()}[name]


def _verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    return ok


@pytest.fixture(scope="module")
def states():
    return {name: build_state(_spec(name)) for name in FAMILY}


@pytest.fixture(scope="module")
def distances(states):
    return {name: distance_distribution(states[name]) for name in FAMILY}


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = cli_main(["verify", "--out", str(out)])
    report = json.loads((out / "verify_report.json").read_text())
    return rc, report


def test_criterion_01_one_body_identity():
    t0 = time.perf_counter()
    axis = np.linspace(-6.0, 6.0, 61)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grids = [rho1(build_state(_spec(name)), gx, gy)
             for name in ("fermi-fock", "bose-fock", "thermal", "coherent")]
    dev = max(float(np.max(np.abs(g - grids[0]))) for g in grids[1:])
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-8 and elapsed < 10.0
    assert _verdict(1, ok, "one-body grids pairwise sup "
                    f"{dev:.3e} (tol 1e-08), {elapsed:.2f} s (limit 10 s)")


def test_criterion_02_fermi_distance(distances):
    dist = distances["fermi-fock"]
    sup = float(np.max(np.abs(dist.values
                              - closed_form_distance("fermi-fock",
                                                     dist.grid))))
    s = summarize(dist)
    mean_err = abs(s.mean - FERMI_DISTANCE_MEAN)
    mode_err = (abs(s.local_maxima[0] - FERMI_DISTANCE_MODE)
                if len(s.local_maxima) == 1 else math.inf)
    ok = sup < 1e-6 and mean_err < 1e-6 and mode_err < 1e-6
    assert _verdict(2, ok, f"fermi distance law sup {sup:.3e}, "
                    f"mean err {mean_err:.3e}, mode err {mode_err:.3e} "
                    "(tol 1e-06 each)")


def test_criterion_03_bose_distance(distances):
    dist = distances["bose-fock"]
    sup = float(np.max(np.abs(dist.values
                              - closed_form_distance("bose-fock",
                                                     dist.grid))))
    s = summarize(dist)
    mean_err = abs(s.mean - BOSE_DISTANCE_MEAN)
    if len(s.local_maxima) == 2:
        peak_err = max(abs(s.local_maxima[0] - 0.715),
                       abs(s.local_maxima[1] - 2.404))
    else:
        peak_err = math.inf
    ok = sup < 1e-6 and mean_err < 1e-6 and peak_err < 1e-3
    assert _verdict(3, ok, f"bose corrected distance law sup {sup:.3e} "
                    f"(tol 1e-06), mean err {mean_err:.3e} (tol 1e-06), "
                    f"maxima err {peak_err:.3e} (tol 1e-03)")


def test_criterion_04_coherent_distance_and_flat_angle(states, distances):
    dist = distances["coherent"]
    sup = float(np.max(np.abs(dist.values
                              - closed_form_distance("coherent",
                                                     dist.grid))))
    ang = angle_distribution(states["coherent"], n_points=181)
    flat = float(np.max(np.abs(ang.values - 1.0 / math.pi)))
    ok = sup < 1e-6 and flat < 1e-8
    assert _verdict(4, ok, f"coherent distance law sup {sup:.3e} "
                    f"(tol 1e-06), angle flatness {flat:.3e} (tol 1e-08)")


def test_criterion_05_second_moment(distances):
    worst = max(abs(summarize(distances[name]).second_moment - 4.0)
                for name in FAMILY)
    ok = worst < 1e-6
    assert _verdict(5, ok, "E[d^2] = 4 across fermi/bose/coherent/thermal/"
                    f"noon, worst err {worst:.3e} (tol 1e-06); note: the "
                    "published 'variance' is the raw second moment")


def test_criterion_06_angle_laws_and_label_flag(states, verify_run):
    devs = {}
    for name in ("fermi-fock", "bose-fock"):
        ang = angle_distribution(states[name], n_points=181)
        _, oracle_vals = oracle_folded_angle_law(_spec(name), n_points=181)
        devs[name] = max(
            float(np.max(np.abs(ang.values - oracle_vals))),
            float(np.max(np.abs(ang.values
                                - closed_form_angle(name, ang.grid)))))
    rc, report = verify_run
    swaps = [r for r in report["reports"]
             if r["claim_id"] == "angle-printed-labels"]
    flagged = (len(swaps) == 2
               and all(r["verdict"] == "Typo-suspected" for r in swaps)
               and not any(r["gating"] for r in swaps)
               and report["all_engine_checks_confirmed"])
    worst = max(devs.values())
    ok = worst < 1e-6 and flagged
    assert _verdict(6, ok, "fermi sin^2 / bose cos^2 angle laws, "
                    f"engine-oracle sup {worst:.3e} (tol 1e-06); printed "
                    f"label swap flagged without failing: {flagged}")


def test_criterion_07_noon(states, distances):
    two = two_angle_distribution(states["noon"], n_points=120)
    _, oracle_vals = oracle_two_angle_law(noon(), n_points=120)
    tt, vv = np.meshgrid(two.grid, two.grid, indexing="ij")
    sup_two = max(
        float(np.max(np.abs(two.values - oracle_vals))),
        float(np.max(np.abs(two.values
                            - closed_form_two_angle("noon", tt, vv)))))
    grid = distances["noon"].grid
    sup_dist = float(np.max(np.abs(distances["noon"].values
                                   - closed_form_distance("coherent",
                                                          grid))))
    ok = sup_two < 1e-6 and sup_dist < 1e-6
    assert _verdict(7, ok, f"noon sin^2(theta+vartheta) law sup "
                    f"{sup_two:.3e}, noon-vs-coherent distance sup "
                    f"{sup_dist:.3e} (tol 1e-06 each)")


def _correlator_deviation(a, b):
    ca, cb = a.correlators(), b.correlators()
    return max(float(np.max(np.abs(ca.first - cb.first))),
               float(np.max(np.abs(ca.second - cb.second))))


def test_criterion_08_basis_identities():
    # For a two-particle state every projector entry is a pair correlator
    # divided by 1, sqrt2 or 2, so correlator deviations bound projector
    # deviations.
    bose = change_basis(make_fock(1, 1, Statistics.BOSE, Basis.DIPOLE))
    dev_b = _correlator_deviation(bose, make_noon(Basis.VORTEX))

    fermi_dipole = make_fock(1, 1, Statistics.FERMI, Basis.DIPOLE)
    fermi = change_basis(fermi_dipole)
    # i |1,1> has the same correlators as |1,1>
    dev_f = _correlator_deviation(fermi, fermi_dipole)
    ok = dev_b < 1e-12 and dev_f < 1e-12
    assert _verdict(8, ok, "basis identities (i/sqrt2)(|2,0>-|0,2>) and "
                    f"i|1,1>, correlator devs {dev_b:.3e} / {dev_f:.3e} "
                    "(tol 1e-12; global phase is unobservable)")


def test_criterion_09_algebra_spot_checks(states):
    fermi_second = make_fock(1, 1, Statistics.FERMI,
                             Basis.DIPOLE).correlators().second
    fermi_zero = bool(np.all(fermi_second[0, 0] == 0.0)
                      and np.all(fermi_second[1, 1] == 0.0))
    g2 = make_fock(2, 0, Statistics.BOSE,
                   Basis.DIPOLE).correlators().second[0, 0, 0, 0]
    g2_err = abs(g2 - 2.0)  # sqrt(2)*sqrt(2) rounds within 2 ulp
    axis = np.linspace(-4.0, 4.0, 9)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    px, py = gx.ravel(), gy.ravel()
    single = rho1(states["coherent"], px, py)
    pair = rho2(states["coherent"], px[:, None], py[:, None],
                px[None, :], py[None, :])
    dev_fact = float(np.max(np.abs(pair - single[:, None]
                                   * single[None, :])))
    ok = fermi_zero and g2_err < 1e-15 and dev_fact < 1e-10
    assert _verdict(9, ok, f"fermi repeated-index block exactly zero: "
                    f"{fermi_zero}; bose(2,0) pair correlator err "
                    f"{g2_err:.1e} (machine exact); coherent factorization "
                    f"dev {dev_fact:.3e} (tol 1e-10)")


def test_criterion_10_monte_carlo(states, distances, tmp_path):
    t0 = time.perf_counter()
    frames = generate_frames(fermi_fock(), 10 ** 6, seed=42)
    seps = pair_separations(frames)
    mean = float(np.mean(seps))
    se = float(np.std(seps, ddof=1)) / math.sqrt(seps.size)
    z = abs(mean - FERMI_DISTANCE_MEAN) / se
    gof_d = chi_square_gof(seps, distances["fermi-fock"])
    gof_a = chi_square_gof(pair_angles(frames),
                           angle_distribution(states["fermi-fock"],
                                              n_points=181))
    elapsed = time.perf_counter() - t0
    rerun = generate_frames(fermi_fock(), 10 ** 6, seed=42)
    save_frames(frames, str(tmp_path / "a.csv"))
    save_frames(rerun, str(tmp_path / "b.csv"))
    identical = ((tmp_path / "a.csv").read_bytes()
                 == (tmp_path / "b.csv").read_bytes())
    ok = (z < 3.0 and gof_d.pvalue >= 0.01 and gof_a.pvalue >= 0.01
          and elapsed < 60.0 and identical)
    assert _verdict(10, ok, f"10^6 fermi frames seed 42: mean z {z:.2f} SE "
                    f"(limit 3), gof p distance {gof_d.pvalue:.3f} / angle "
                    f"{gof_a.pvalue:.3f} (floor 0.01), {elapsed:.1f} s "
                    f"(limit 60 s), rerun byte-identical: {identical}")


def test_criterion_11_engine_oracle_equivalence(verify_run):
    rc, report = verify_run
    fock_kinds = {"fermi-fock", "bose-fock", "bose-fock(2,0)", "noon"}
    rows = [r for r in report["reports"]
            if r["claim_id"] == "rho2-engine-vs-oracle"
            and r["kind"] in fock_kinds]
    worst = max(r["max_abs_deviation"] for r in rows)
    ok = (rc == 0 and report["resolution"] == 61 and len(rows) == 4
          and worst < 1e-10)
    assert _verdict(11, ok, "engine-oracle pair sweeps on the 61^4 grid, "
                    f"worst Fock-sector dev {worst:.3e} (tol 1e-10); "
                    f"verify exit code {rc}")
