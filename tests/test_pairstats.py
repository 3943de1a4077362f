"""Distance and angle laws: kernel and quadrature vs closed forms, moments,
peaks."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from vortexcorr.density import rho2
from vortexcorr.errors import AnisotropicStateError, NoPairsError
from vortexcorr.fock import pair_moment
from vortexcorr.pairstats import (VERBATIM, PairDistribution, PairVariable,
                                  angle_distribution, closed_form_angle,
                                  closed_form_distance, closed_form_two_angle,
                                  compose_distance_samples,
                                  distance_distribution, ring_radial_density,
                                  summarize, two_angle_distribution)
from vortexcorr.quadrature import gauss_legendre
from vortexcorr.states import (bose_fock, build_state, coherent, cothermal,
                               fermi_fock, noon, thermal)

SHIPPED = (fermi_fock(), bose_fock(), bose_fock(2, 1), coherent(), thermal(),
           cothermal(), noon())

FERMI_MEAN = math.sqrt(9.0 * math.pi / 8.0)      # 1.8799712059732503
BOSE_MEAN = math.sqrt(121.0 * math.pi / 128.0)   # 1.7233069378059566
FERMI_MODE = math.sqrt(3.0)
# roots of the corrected-bose stationarity polynomial 8 - 20 d^2 + 9 d^4 - d^6
BOSE_MODES = (0.7146407690409673, 2.4038421558469611)


@pytest.fixture(scope="module")
def engine_distance():
    out = {}
    for spec in (fermi_fock(), bose_fock(1, 1), coherent(), thermal(1.0, 1.0),
                 noon()):
        out[spec.kind] = distance_distribution(build_state(spec))
    return out


def _plane_reference(state, d):
    """D(d) by brute force: the center-of-mass plane [-6, 6]^2 on a 48^2
    Gauss-Legendre grid times a 16-angle periodic rule for the direction."""
    nodes, weights = gauss_legendre(48, -6.0, 6.0)
    rx, ry = (a.ravel() for a in np.meshgrid(nodes, nodes, indexing="ij"))
    rw = np.outer(weights, weights).ravel()
    gamma = np.arange(16) * (2.0 * math.pi / 16)
    hx = 0.5 * d[:, None, None] * np.cos(gamma)[None, :, None]
    hy = 0.5 * d[:, None, None] * np.sin(gamma)[None, :, None]
    dens = rho2(state, rx + hx, ry + hy, rx - hx, ry - hy)
    return d * (2.0 * math.pi / 16) * np.sum(dens * rw, axis=(1, 2)) \
        / pair_moment(state)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
@pytest.mark.parametrize("basis", ["vortex", "dipole"])
def test_distance_kernel_matches_plane_quadrature(spec, basis):
    state = build_state(replace(spec, basis=basis))
    d = np.linspace(0.0, 8.0, 9)
    got = distance_distribution(state).value_at(d)
    np.testing.assert_allclose(got, _plane_reference(state, d), rtol=0,
                               atol=2e-10)


def test_distance_kernel_matches_closed_forms():
    for spec in (fermi_fock(), fermi_fock("dipole"), bose_fock(1, 1),
                 coherent(), noon()):
        dist = distance_distribution(build_state(spec))
        want = closed_form_distance(spec.kind, dist.grid)
        assert np.max(np.abs(dist.values - want)) <= 1e-13, spec.kind


def _random_spec(draw):
    from hypothesis import strategies as st
    kind = draw(st.sampled_from(("bose-fock", "fermi-fock", "coherent",
                                 "thermal", "cothermal", "noon")))
    basis = draw(st.sampled_from(("vortex", "dipole")))
    unit = st.floats(-1.0, 1.0)
    if kind == "bose-fock":
        n = draw(st.integers(0, 6))
        spec = bose_fock(n, draw(st.integers(max(0, 2 - n), 6)))
    elif kind == "coherent":
        spec = coherent(complex(draw(unit), draw(unit)),
                        complex(draw(unit), draw(unit)), cutoff=24)
    elif kind == "thermal":
        spec = thermal(draw(st.floats(0.05, 0.8)), draw(st.floats(0.05, 0.8)))
    elif kind == "cothermal":
        spec = cothermal(complex(draw(unit), draw(unit)) * 0.7,
                         draw(st.floats(0.05, 0.5)))
    else:
        spec = fermi_fock() if kind == "fermi-fock" else noon()
    return replace(spec, basis=basis)


def test_distance_kernel_normalized_with_second_moment_four():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    nodes, weights = gauss_legendre(160, 0.0, 16.0)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        state = build_state(_random_spec(data.draw))
        hypothesis.assume(pair_moment(state) > 1e-3)
        dens = distance_distribution(state, n_points=8).value_at(nodes)
        assert abs(np.sum(weights * dens) - 1.0) <= 1e-12
        assert abs(np.sum(weights * nodes ** 2 * dens) - 4.0) <= 1e-12

    check()


def test_pairdist_leaves_out_scipy(tmp_path):
    code = ("import sys; from vortexcorr.cli import main; "
            "rc = main(['pairdist', '--state', 'thermal', '--points', '64', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0 False"


def test_distance_laws_match_closed_forms(engine_distance):
    for kind in ("fermi-fock", "bose-fock", "coherent", "noon"):
        dist = engine_distance[kind]
        want = closed_form_distance(kind, dist.grid)
        assert np.max(np.abs(dist.values - want)) < 1e-6, kind


def test_fermi_distance_moments(engine_distance):
    summary = summarize(engine_distance["fermi-fock"])
    assert abs(summary.mean - FERMI_MEAN) < 1e-6
    assert abs(summary.second_moment - 4.0) < 1e-6
    assert len(summary.local_maxima) == 1
    assert abs(summary.local_maxima[0] - FERMI_MODE) < 1e-6


def test_bose_distance_moments(engine_distance):
    summary = summarize(engine_distance["bose-fock"])
    assert abs(summary.mean - BOSE_MEAN) < 1e-6
    assert abs(summary.second_moment - 4.0) < 1e-6
    assert len(summary.local_maxima) == 2
    assert abs(summary.local_maxima[0] - BOSE_MODES[0]) < 1e-3
    assert abs(summary.local_maxima[1] - BOSE_MODES[1]) < 1e-3


def test_noon_distance_equals_coherent(engine_distance):
    a = engine_distance["noon"]
    b = engine_distance["coherent"]
    assert np.max(np.abs(a.values - b.values)) < 1e-6


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_summary_second_moment_exact(spec):
    # the moment rule reaches d = 16, so no mass beyond d = 8 is lost
    summary = summarize(distance_distribution(build_state(spec), n_points=8))
    assert abs(summary.second_moment - 4.0) < 1e-12
    if spec.kind == "fermi-fock":
        assert abs(summary.mean - FERMI_MEAN) < 1e-12


def test_second_moment_is_four_for_family(engine_distance):
    # E[d^2] = 2 <r^2> holds across the family; includes thermal
    for kind, dist in engine_distance.items():
        assert abs(summarize(dist).second_moment - 4.0) < 1e-6, kind


def test_closed_distance_normalizations():
    from scipy.integrate import quad
    for kind in ("fermi-fock", "bose-fock", "coherent"):
        total, _ = quad(lambda d, k=kind: float(closed_form_distance(k, d)),
                        0.0, 12.0)
        assert abs(total - 1.0) < 1e-9, kind
    # the printed bose form (leading d dropped) is not normalized
    verb, _ = quad(lambda d: float(closed_form_distance("bose-fock", d,
                                                        variant=VERBATIM)),
                   0.0, 12.0)
    assert abs(verb - 0.875 * math.sqrt(math.pi / 2.0)) < 1e-9


def test_angle_laws_match_closed_forms():
    for spec, kind in ((fermi_fock(), "fermi-fock"),
                       (bose_fock(1, 1), "bose-fock"),
                       (coherent(), "coherent"),
                       (thermal(1.0, 1.0), "thermal")):
        dist = angle_distribution(build_state(spec))
        want = closed_form_angle(kind, dist.grid)
        assert np.max(np.abs(dist.values - want)) < 1e-6, kind


def test_fermi_bose_angle_shapes():
    fermi = angle_distribution(build_state(fermi_fock()))
    bose = angle_distribution(build_state(bose_fock(1, 1)))
    mid = len(fermi.grid) // 2
    # fermions peak at perpendicular, bosons at aligned configurations
    assert fermi.values[0] < 1e-10 and fermi.values[-1] < 1e-10
    assert fermi.values[mid] == pytest.approx(2.0 / math.pi, abs=1e-9)
    assert bose.values[mid] < 1e-10
    assert bose.values[0] == pytest.approx(2.0 / math.pi, abs=1e-9)
    # verbatim catalog swaps the two labels
    np.testing.assert_allclose(
        closed_form_angle("fermi-fock", fermi.grid, variant=VERBATIM),
        closed_form_angle("bose-fock", fermi.grid), atol=1e-14)


def test_coherent_angle_flat():
    dist = angle_distribution(build_state(coherent()))
    assert np.max(np.abs(dist.values - 1.0 / math.pi)) < 1e-8


def test_angle_law_normalizations():
    for spec in (fermi_fock(), bose_fock(1, 1), thermal(1.0, 1.0),
                 cothermal()):
        dist = angle_distribution(build_state(spec))
        assert abs(dist.integral() - 1.0) < 1e-9, spec.kind


def test_noon_angle_needs_two_angles():
    with pytest.raises(AnisotropicStateError):
        angle_distribution(build_state(noon()))


def test_noon_two_angle_law():
    dist = two_angle_distribution(build_state(noon()))
    tt, vv = np.meshgrid(dist.grid, dist.grid, indexing="ij")
    want = closed_form_two_angle("noon", tt, vv)
    assert np.max(np.abs(dist.values - want)) < 1e-6
    assert abs(dist.integral() - 1.0) < 1e-10


def test_fermi_two_angle_law():
    dist = two_angle_distribution(build_state(fermi_fock()))
    tt, vv = np.meshgrid(dist.grid, dist.grid, indexing="ij")
    want = np.sin(tt - vv) ** 2 / (2.0 * math.pi ** 2)
    assert np.max(np.abs(dist.values - want)) < 1e-6


def test_distance_crossings():
    # all three pairwise differences of the closed laws vanish at the same
    # two distances d^2 = 4 -+ 2 sqrt(2)
    for d2 in (4.0 - 2.0 * math.sqrt(2.0), 4.0 + 2.0 * math.sqrt(2.0)):
        d = math.sqrt(d2)
        f = float(closed_form_distance("fermi-fock", d))
        b = float(closed_form_distance("bose-fock", d))
        c = float(closed_form_distance("coherent", d))
        assert abs(f - b) < 1e-14 and abs(f - c) < 1e-14


def test_summarize_needs_closure():
    grid = np.linspace(0.0, 8.0, 81)
    table = PairDistribution(PairVariable.DISTANCE, grid,
                             closed_form_distance("fermi-fock", grid))
    with pytest.raises(ValueError):
        summarize(table)


def test_no_pairs_guard():
    with pytest.raises(NoPairsError):
        distance_distribution(build_state(coherent(alpha_a=0.0, alpha_b=0.0)))


def test_composition_reproduces_fermi_law():
    # independent ring radii + correlated angle reassemble the distance law
    samples = compose_distance_samples(
        ring_radial_density,
        lambda t: closed_form_angle("fermi-fock", t),
        200000, seed=5)
    hist, edges = np.histogram(samples, bins=60, range=(0.0, 6.0),
                               density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    want = closed_form_distance("fermi-fock", centers)
    # Monte Carlo resolution: mean absolute error well under 2 percent
    assert np.mean(np.abs(hist - want)) < 0.02


def test_ring_radial_density_normalized():
    from scipy.integrate import quad
    total, _ = quad(lambda r: float(ring_radial_density(r)), 0.0, 10.0)
    assert abs(total - 1.0) < 1e-10
    # its mode sits at r = sqrt(3/2)
    r = np.linspace(0.5, 2.0, 3001)
    assert abs(r[np.argmax(ring_radial_density(r))]
               - math.sqrt(1.5)) < 1e-3
