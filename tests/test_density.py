"""Position densities: engine vs the oracle's closed forms, invariances,
normalization."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quadrature import gauss_legendre
from vortexcorr.density import density_grid, rho1, rho2
from vortexcorr.errors import AlgebraInconsistencyError
from vortexcorr.fock import (Basis, Correlators, QuantumState, Statistics,
                             change_basis)
from vortexcorr.modes import DIPOLE_PAIR, VORTEX_PAIR
from vortexcorr.oracle import printed_rho2, reference_rho2, rho1_closed
from vortexcorr.states import (bose_fock, build_state, coherent, cothermal,
                               fermi_fock, noon, thermal)

DONUT_SPECS = (fermi_fock(), bose_fock(1, 1), thermal(1.0, 1.0), coherent())
SHIPPED = (fermi_fock(), bose_fock(1, 1), bose_fock(2, 0), coherent(),
           thermal(1.0, 1.0), cothermal(), noon())


def _amplitudes(state, x, y):
    """The state's two mode amplitudes sqrt(2/pi) (v . x) e^{-|x|^2/2}
    in extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    gauss = np.sqrt(2 / pi) * np.exp(-(x * x + y * y) / 2)
    modes = VORTEX_PAIR if state.basis is Basis.VORTEX else DIPOLE_PAIR
    return np.stack([(np.clongdouble(mode.v[0]) * x
                      + np.clongdouble(mode.v[1]) * y) * gauss
                     for mode in modes])


def _rho2_einsum(state, x1, y1, x2, y2):
    """Reference rho2: the correlators contracted with all four mode
    amplitudes in one five-operand einsum, in extended precision, so that
    its own rounding (up to 1.1e-15 of the largest value in double) stays
    well below the engine's."""
    second = state.correlators().second.astype(np.clongdouble)
    amp1 = _amplitudes(state, x1, y1)
    amp2 = _amplitudes(state, x2, y2)
    return np.einsum("abcd,a...,d...,b...,c...->...", second,
                     np.conj(amp1), amp1, np.conj(amp2), amp2).real


def test_fermi_rho1_is_donut():
    # rho1 = 2 r^2 e^{-r^2} / pi for one quantum in each vortex mode
    state = build_state(fermi_fock())
    for r in (0.0, 0.5, 1.0, 2.2):
        want = 2.0 * r * r * math.exp(-r * r) / math.pi
        assert rho1(state, r, 0.0) == pytest.approx(want, abs=1e-13)
        assert rho1(state, 0.0, -r) == pytest.approx(want, abs=1e-13)
    assert rho1(state, 1.0, 0.0) == pytest.approx(0.23419932609727667,
                                                  abs=1e-14)


def test_one_body_family_identity():
    # the four canonical two-quanta states share one donut profile
    x = np.linspace(-3.0, 3.0, 25)
    xx, yy = np.meshgrid(x, x)
    grids = [rho1(build_state(spec), xx, yy) for spec in DONUT_SPECS]
    for other in grids[1:]:
        assert np.max(np.abs(other - grids[0])) < 1e-8


def test_rho1_closed_matches_engine():
    pts = np.linspace(-2.5, 2.5, 41)
    for spec in (fermi_fock(), bose_fock(2, 0), coherent(), thermal(1.0, 0.5),
                 cothermal(), noon()):
        state = build_state(spec)
        got = rho1(state, pts, 0.3)
        want = rho1_closed(spec, pts, 0.3)
        assert np.max(np.abs(got - want)) < 1e-9


def test_density_grid_total_is_mean_number():
    for spec, want in ((fermi_fock(), 2.0), (bose_fock(2, 0), 2.0),
                       (coherent(), 2.0), (cothermal(), 2.0)):
        field = density_grid(build_state(spec), extent=6.0, step=0.1)
        assert field.total == pytest.approx(want, abs=1e-7)


def test_rho2_engine_matches_closed_forms():
    p1 = (0.7, -0.2)
    p2 = (-1.1, 0.9)
    for spec in (fermi_fock(), bose_fock(1, 1), bose_fock(2, 0), coherent(),
                 thermal(1.0, 1.0), noon()):
        state = build_state(spec)
        got = rho2(state, *p1, *p2)
        want = reference_rho2(spec, *p1, *p2)
        assert got == pytest.approx(float(want), abs=2e-9), spec.kind


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_rho2_sandwich_matches_einsum(spec):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(4, 300))
    state = build_state(spec)
    for st in (state, change_basis(state)):
        for args in ((pts[0][:, None], pts[1][:, None],
                      pts[2][None, :], pts[3][None, :]),     # outer product
                     tuple(pts)):                            # matched pairs
            got = rho2(st, *args)
            want = _rho2_einsum(st, *args)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_rho2_rejects_imaginary_kernel():
    # a non-Hermitian second-order tensor gives a complex M
    second = np.zeros((2, 2, 2, 2), dtype=complex)
    second[0, 1, 1, 0] = 1.0 + 0.5j
    state = QuantumState(Statistics.BOSE, Basis.VORTEX,
                         Correlators(first=np.eye(2, dtype=complex),
                                     second=second))
    with pytest.raises(AlgebraInconsistencyError, match="imaginary"):
        rho2(state, 0.3, 0.4, -1.0, 0.2)


@pytest.mark.parametrize("basis", ["vortex", "dipole"])
def test_rho2_matches_einsum_off_the_shipped_states(basis):
    # lobed and unbalanced states, whose M couples the 2xy harmonic to the
    # other two
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, size=(4, 200))
    for spec in (coherent(alpha_a=1.0, alpha_b=0.5j), coherent(0.3, -1.2),
                 cothermal(alpha=0.8 - 0.4j, nbar=0.3), thermal(0.4, 2.5),
                 bose_fock(2, 1)):
        state = build_state(replace(spec, basis=basis))
        got = rho2(state, *pts)
        want = _rho2_einsum(state, *pts)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_rho2_symmetry_under_particle_swap():
    state = build_state(bose_fock(1, 1))
    a = rho2(state, 0.3, 0.4, -1.0, 0.2)
    b = rho2(state, -1.0, 0.2, 0.3, 0.4)
    assert a == pytest.approx(b, rel=1e-12)


def test_rho2_rotation_invariance_isotropic():
    c, s = math.cos(0.9), math.sin(0.9)
    for spec in (fermi_fock(), thermal(1.0, 1.0), coherent()):
        state = build_state(spec)
        x1, y1, x2, y2 = 0.8, -0.1, -0.4, 1.2
        xr1, yr1 = c * x1 - s * y1, s * x1 + c * y1
        xr2, yr2 = c * x2 - s * y2, s * x2 + c * y2
        assert rho2(state, xr1, yr1, xr2, yr2) == pytest.approx(
            float(rho2(state, x1, y1, x2, y2)), rel=1e-10), spec.kind


def test_noon_rho2_not_rotation_invariant():
    state = build_state(noon())
    c, s = math.cos(0.6), math.sin(0.6)
    x1, y1, x2, y2 = 1.0, 0.0, 0.0, 1.1
    xr1, yr1 = c * x1 - s * y1, s * x1 + c * y1
    xr2, yr2 = c * x2 - s * y2, s * x2 + c * y2
    a = float(rho2(state, x1, y1, x2, y2))
    b = float(rho2(state, xr1, yr1, xr2, yr2))
    assert abs(a - b) > 1e-3


def test_fermi_rho2_vanishes_at_coincidence():
    state = build_state(fermi_fock())
    for x, y in ((0.5, 0.5), (1.0, -0.3)):
        assert abs(rho2(state, x, y, x, y)) < 1e-14


def test_coherent_rho2_factorizes():
    spec = coherent()
    state = build_state(spec)
    pts = np.linspace(-2.0, 2.0, 9)
    r2 = rho2(state, pts[:, None], 0.1, pts[None, :], -0.4)
    r1a = rho1(state, pts, 0.1)
    r1b = rho1(state, pts, -0.4)
    assert np.max(np.abs(r2 - r1a[:, None] * r1b[None, :])) < 1e-10


def test_rho2_marginal_recovers_rho1():
    # integrating out one particle leaves (N-1) rho1 for two-quanta states
    nodes, weights = gauss_legendre(64, -6.0, 6.0)
    w2 = weights[:, None] * weights[None, :]
    for spec in (fermi_fock(), bose_fock(1, 1)):
        state = build_state(spec)
        for x1, y1 in ((0.9, 0.0), (0.4, -1.2)):
            vals = rho2(state, x1, y1, nodes[:, None], nodes[None, :])
            marginal = float(np.sum(w2 * vals))
            want = float(rho1(state, x1, y1))
            assert marginal == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("step", [0.05, 0.7, 0.0125])
def test_density_grid_blocks_match_one_whole_grid_call(step):
    # 241, 18 and 961 points per axis: blocks of 67, 18 and 17 rows, the
    # last of them partial at 241 and 961
    state = build_state(bose_fock(2, 0))
    fld = density_grid(state, step=step)
    xx, yy = np.meshgrid(fld.x, fld.x, indexing="ij")
    whole = rho1(state, xx, yy)
    assert fld.values.tobytes() == whole.tobytes()
    assert fld.total == float(np.trapezoid(
        np.trapezoid(whole, fld.x, axis=1), fld.x))


def test_density_grid_memory_is_bounded_by_the_block():
    # apart from the returned grid, blocks of at most 2^14 points keep the
    # peak near 1 MB at 241 and at 961 points per axis; one rho1 call on
    # the whole grid peaked at 4.9 and 77.5 MB
    state = build_state(fermi_fock())
    peaks = []
    for step in (0.05, 0.0125):
        tracemalloc.start()
        try:
            fld = density_grid(state, step=step)
            peaks.append(tracemalloc.get_traced_memory()[1]
                         - fld.values.nbytes)
        finally:
            tracemalloc.stop()
    assert len(fld.x) == 961
    assert peaks[1] < peaks[0] + 2 ** 18
    assert max(peaks) < 2 * 2 ** 20


def test_polar_factorization():
    # rho2 = (r s / pi)^2 e^{-r^2-s^2} W(theta, vartheta) for two-quanta
    # vortex-pair states; W depends only on the angles
    spec = fermi_fock()
    thetas = (0.3, 1.1, 2.8)
    radii = ((1.0, 1.0), (0.5, 1.7), (2.0, 0.8))
    w_ref = None
    for th in thetas:
        vals = []
        for r, s in radii:
            scale = (r * s / math.pi) ** 2 * math.exp(-r * r - s * s)
            rho = reference_rho2(spec, r * math.cos(th), r * math.sin(th),
                                 s, 0.0)
            vals.append(float(rho) / scale)
        assert np.ptp(vals) < 1e-10
    # fermi angular factor is 4 sin^2(delta); its double-angle integral is
    # 8 pi^2 = 4 pi^2 N2 with N2 = 2 pairs
    w = float(reference_rho2(spec, math.cos(0.9), math.sin(0.9), 1.0, 0.0)) \
        / ((1.0 / math.pi) ** 2 * math.exp(-2.0))
    assert w == pytest.approx(4.0 * math.sin(0.9) ** 2, abs=1e-12)


def test_verbatim_pairing_differs():
    # the printed same-label pairing is not the engine form
    spec = fermi_fock()
    x = np.linspace(-2, 2, 21)
    corrected = reference_rho2(spec, x[:, None], 0.2, x[None, :], -0.5)
    verbatim = printed_rho2(spec, x[:, None], 0.2, x[None, :], -0.5)
    assert np.max(np.abs(corrected - verbatim)) > 1e-3


def test_cothermal_has_no_closed_rho2():
    with pytest.raises(ValueError):
        printed_rho2(cothermal(), 0.1, 0.2, 0.3, 0.4)
