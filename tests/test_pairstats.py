"""Distance and angle laws: kernels vs the former quadratures and closed
forms, the bosonic-weight identities, moments, peaks."""

import cmath
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from quadrature import gauss_legendre
from vortexcorr.density import rho1, rho2
from vortexcorr.errors import AlgebraInconsistencyError, NoPairsError
from vortexcorr.fock import (Basis, Correlators, QuantumState, Statistics,
                             change_basis, harmonics,
                             pair_isotropy_defect)
from vortexcorr.modes import DIPOLE_PAIR, VORTEX_PAIR, mode_eval
from vortexcorr.oracle import (_PRINTED_DISTANCE_FORMS, ANGLE_FORMS,
                               closed_form_angle, closed_form_distance,
                               closed_form_two_angle)
from vortexcorr.pairstats import (ISOTROPY_TOL, PairDistribution,
                                  PairVariable, angle_distribution,
                                  bosonic_weight, distance_distribution,
                                  summarize, two_angle_distribution)
from vortexcorr import pairstats, sampler
from vortexcorr.sampler import ROUNDING_ALLOWANCE, AngularLaw
from vortexcorr.states import (bose_fock, build_state, coherent, cothermal,
                               fermi_fock, noon, thermal)

SHIPPED = (fermi_fock(), bose_fock(), bose_fock(2, 1), coherent(), thermal(),
           cothermal(), noon())

FERMI_MEAN = math.sqrt(9.0 * math.pi / 8.0)      # 1.8799712059732503
BOSE_MEAN = math.sqrt(121.0 * math.pi / 128.0)   # 1.7233069378059566
FERMI_MODE = math.sqrt(3.0)
# roots of the corrected-bose stationarity polynomial 8 - 20 d^2 + 9 d^4 - d^6
BOSE_MODES = (0.7146407686312902, 2.4038421575174999)


def pair_moment(state):
    """<:N^2:>, the pair-counting normalization: M_00 of harmonics."""
    return float(harmonics(state)[1][0, 0])


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


def _modes(state):
    return VORTEX_PAIR if state.basis is Basis.VORTEX else DIPOLE_PAIR


def _profiles_reference(state, thetas):
    """The former angle-law route: G[p, q, ...] = int r dr phi_p* phi_q of
    the mode functions on a 40-node radial Gauss-Legendre rule over
    [0, 6]."""
    nodes, weights = gauss_legendre(40, 0.0, 6.0)
    th = np.asarray(thetas, dtype=float)
    rr = nodes.reshape((-1,) + (1,) * th.ndim)
    amps = np.stack([mode_eval(m, rr * np.cos(th), rr * np.sin(th))
                     for m in _modes(state)])
    return np.einsum("i,pi...,qi...->pq...", weights * nodes, np.conj(amps),
                     amps)


def _angle_reference(state, delta):
    """Folded relative-angle law from the profiles and a 16-angle
    periodic rule over the common rotation."""
    phis = np.arange(16) * (2.0 * math.pi / 16)
    base = _profiles_reference(state, phis)
    moved = _profiles_reference(
        state, np.concatenate([delta, delta + math.pi])[:, None] + phis)
    raw = np.einsum("abcd,adj,bckj->k", state.correlators().second, base,
                    moved) * (2.0 * math.pi / 16) / pair_moment(state)
    return raw.real[:len(delta)] + raw.real[len(delta):]


def _two_angle_reference(state, theta, vartheta):
    joint = np.einsum("abcd,adj,bck->jk", state.correlators().second,
                      _profiles_reference(state, theta),
                      _profiles_reference(state, vartheta))
    return joint.real / pair_moment(state)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
@pytest.mark.parametrize("basis", ["vortex", "dipole"])
def test_angle_laws_match_profile_quadrature(spec, basis):
    state = build_state(replace(spec, basis=basis))
    off_grid = np.array([0.05, 1.234, 2.5, 3.1])
    two = two_angle_distribution(state)
    np.testing.assert_allclose(
        two.values, _two_angle_reference(state, two.grid, two.grid),
        rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        two.value_at(off_grid[:, None], off_grid[None, :] + 2.0),
        _two_angle_reference(state, off_grid, off_grid + 2.0),
        rtol=0, atol=1e-13)
    rel = angle_distribution(state)
    np.testing.assert_allclose(rel.values, _angle_reference(state, rel.grid),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(rel.value_at(off_grid),
                               _angle_reference(state, off_grid),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_angle_closures_equal_tables(spec):
    state = build_state(spec)
    two = two_angle_distribution(state, n_points=64)
    np.testing.assert_array_equal(
        two.value_at(two.grid[:, None], two.grid[None, :]), two.values)
    rel = angle_distribution(state, n_points=101)
    np.testing.assert_array_equal(rel.value_at(rel.grid), rel.values)


@pytest.mark.parametrize("spec", (fermi_fock(), thermal(1.0, 0.5),
                                  cothermal()), ids=lambda s: s.kind)
def test_angle_closure_shape_changes_no_value(spec):
    delta = np.random.default_rng(3).uniform(0.0, math.pi, 1000)
    closure = angle_distribution(build_state(spec), n_points=8).closure
    np.testing.assert_array_equal(closure(delta.reshape(40, 25)),
                                  closure(delta).reshape(40, 25))


def test_harmonic_matrix_rejects_imaginary_weight():
    # a non-Hermitian second-order tensor gives a complex M, which both
    # pair laws refuse
    second = np.zeros((2, 2, 2, 2), dtype=complex)
    second[0, 1, 1, 0] = 1.0 + 0.5j
    state = QuantumState(Statistics.BOSE, Basis.VORTEX,
                         Correlators(first=np.eye(2, dtype=complex),
                                     second=second))
    with pytest.raises(AlgebraInconsistencyError, match="imaginary"):
        distance_distribution(state)
    with pytest.raises(AlgebraInconsistencyError, match="imaginary"):
        AngularLaw(state)


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

    def amplitude():
        return cmath.rect(draw(st.floats(0.0, 3.0)),
                          draw(st.floats(0.0, 2.0 * math.pi)))

    if kind == "bose-fock":
        n = draw(st.integers(0, 6))
        spec = bose_fock(n, draw(st.integers(max(0, 2 - n), 6)))
    elif kind == "coherent":
        spec = coherent(amplitude(), amplitude())
    elif kind == "thermal":
        spec = thermal(draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0)))
    elif kind == "cothermal":
        spec = cothermal(amplitude(), draw(st.floats(0.05, 3.0)))
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


def test_laws_follow_from_bosonic_weight():
    # two independent routes: the distance kernel against the mixture of
    # the printed laws, and the angular weight W against the cos 2D law
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    d = np.linspace(0.0, 8.0, 161)
    bose = closed_form_distance("bose-fock", d)
    fermi = closed_form_distance("fermi-fock", d)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        spec = _random_spec(data.draw)
        state = build_state(spec)
        hypothesis.assume(pair_moment(state) > 1e-3)
        w = bosonic_weight(state)
        if spec.kind == "fermi-fock":
            assert abs(w) <= 1e-14
        else:
            assert 0.5 - 1e-14 <= w <= 1.0 + 1e-14
        dist = distance_distribution(state, n_points=8)
        assert dist.meta["bosonic_weight"] == w
        np.testing.assert_allclose(dist.value_at(d),
                                   w * bose + (1.0 - w) * fermi,
                                   rtol=0, atol=1e-14)
        rel = angle_distribution(state, n_points=91)
        assert rel.meta["bosonic_weight"] == w
        np.testing.assert_allclose(
            rel.values, (1.0 + (2.0 * w - 1.0) * np.cos(2.0 * rel.grid))
            / math.pi, rtol=0, atol=1e-13)

    check()


def test_harmonic_matrix_closed_form_laws():
    # from M alone: the folded angle law integrates to 1 (M_00 = N2), is
    # non-negative (its cos 2D, sin 2D amplitude is at most M_00) and, for
    # rotation-invariant states, has contrast 2w - 1
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        state = build_state(_random_spec(data.draw))
        norm = pair_moment(state)
        hypothesis.assume(norm > 1e-3)
        m = harmonics(state)[1]
        assert abs(m[0, 0] - norm) <= 1e-12 * norm
        amplitude = 0.5 * math.hypot(m[1, 1] + m[2, 2], m[1, 2] - m[2, 1])
        assert m[0, 0] - amplitude >= -1e-12 * m[0, 0]
        contrast = 2.0 * bosonic_weight(state) - 1.0
        assert abs((m[1, 1] + m[2, 2]) / (2.0 * m[0, 0]) - contrast) <= 1e-12

    check()


def _trace_coefficients(state):
    """The former route to the distance numbers (s, t): in the dipole basis
    every mode vector is a unit vector, so s and t are traces of the
    dipole-basis correlator."""
    dipole = state if state.basis is Basis.DIPOLE else change_basis(state)
    second = dipole.correlators().second
    direct = np.einsum("abba->", second)
    exchange = np.einsum("aacc->", second) + np.einsum("abab->", second)
    return (direct + exchange).real, (direct - exchange).real


def _charge_defect(state):
    """The former isotropy rule: a rotation by t multiplies each
    vortex-basis correlator entry by exp(i t (l_q + l_q' - l_p - l_p'));
    the largest entry of unbalanced circulation, relative to the largest
    entry of the same order."""
    vortex = state if state.basis is Basis.VORTEX else change_basis(state)
    defect = 0.0
    for tensor in (vortex.correlators().first, vortex.correlators().second):
        # creation indices come first; index 0 is l = +1, index 1 is l = -1
        ell = 1 - 2 * np.indices(tensor.shape)
        half = tensor.ndim // 2
        charge = ell[:half].sum(axis=0) - ell[half:].sum(axis=0)
        defect = max(defect, float(np.max(np.abs(tensor[charge != 0])))
                     / float(np.max(np.abs(tensor))))
    return defect


def test_harmonics_agree_with_the_former_routes():
    # (m, M) against the routes it replaced, in both bases: w against the
    # dipole-basis traces, the isotropy defect against the vortex-charge
    # rule, and rho1 = m . h against the mode-product einsum
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    d = np.linspace(0.0, 8.0, 33)
    x, y = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, 200))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.composite(_random_spec)())
    def check(spec):
        built = build_state(spec)
        hypothesis.assume(pair_moment(built) > 1e-3)
        for state in (built, change_basis(built)):
            norm = pair_moment(state)
            s, t = _trace_coefficients(state)
            assert abs(bosonic_weight(state) - s / (4.0 * norm)) <= 2e-15
            np.testing.assert_allclose(
                distance_distribution(state, n_points=8).value_at(d),
                d * np.exp(-0.5 * d * d) * (s * (1.0 + d ** 4 / 8.0)
                                            + t * d * d) / (4.0 * norm),
                rtol=0, atol=2e-15)
            # the two defects differ by at most a factor 2 either way, so
            # the verdicts agree unless the state sits that close to the
            # tolerance
            old, new = _charge_defect(state), pair_isotropy_defect(state)
            assert new <= 2.0 * old + 1e-12 and old <= 2.0 * new + 1e-12
            if not ISOTROPY_TOL / 4.0 < old < 4.0 * ISOTROPY_TOL:
                assert (new > ISOTROPY_TOL) == (old > ISOTROPY_TOL)
            amps = np.stack([mode_eval(m, x, y) for m in _modes(state)])
            want = np.einsum("pq,p...,q...->...", state.correlators().first,
                             np.conj(amps), amps).real
            assert (np.max(np.abs(rho1(state, x, y) - want))
                    <= 4e-15 * np.max(np.abs(want)))

    check()


def test_angular_acceptance_at_least_a_quarter():
    # W <= 4 mean(W) = 4 M_00 for every state, so the majorant is at most
    # 4 M_00 plus its rounding allowance ROUNDING_ALLOWANCE sum|M_jk|; as
    # |M_0k|, |M_k0| <= 2 M_00 and |M_jk| <= 4 M_00 otherwise, sum|M_jk| <=
    # 25 M_00, and the acceptance is at least 1 / (4 + 25 ROUNDING_ALLOWANCE)
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    floor = 0.25 - 2.0 * ROUNDING_ALLOWANCE

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        state = build_state(_random_spec(data.draw))
        hypothesis.assume(pair_moment(state) > 1e-3)
        assert AngularLaw(state).acceptance_estimate >= floor

    check()


def test_majorant_is_exact():
    # the majorant bounds W as the sampler evaluates it, from half-angle
    # tangents, on a dense random probe and at the peak of W; and it
    # exceeds the true maximum by at most its Lipschitz term plus the
    # rounding allowance
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    # an isotropic state: c0 + |c| is the same on every node, and the
    # law's 4096-node maximum came out one ulp above this test's
    pinned = replace(cothermal(cmath.rect(1.9454876126783016, 1.0),
                               1.9454876126783016), basis="dipole")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.composite(_random_spec)(),
                      st.integers(0, 2 ** 32 - 1))
    @hypothesis.example(pinned, 0)
    def check(spec, seed):
        state = build_state(spec)
        hypothesis.assume(pair_moment(state) > 1e-3)
        law = AngularLaw(state)
        m = law.matrix
        # with theta fixed, W peaks at c0 + |(c1, c2)| where 2 vartheta
        # points along (c1, c2), c = M^T g(theta); 2 theta on 2^16 nodes
        phi = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
        c = m.T @ np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
        peak = int(np.argmax(c[0] + np.hypot(c[1], c[2])))
        top = float(c[0, peak] + math.hypot(c[1, peak], c[2, peak]))
        u = np.random.default_rng(seed).random((2, 20000))
        u[:, 0] = (phi[peak] / (4.0 * math.pi),
                   math.atan2(c[2, peak], c[1, peak]) / (4.0 * math.pi) % 1.0)
        w = law.from_unit_vectors(*sampler._unit_vectors(u[0]),
                                  *sampler._unit_vectors(u[1]))
        assert np.max(w) <= law.majorant
        assert abs(w[0] - top) <= 1e-9 * m[0, 0]
        lipschitz = (math.hypot(m[1, 0], m[2, 0])
                     + float(np.linalg.norm(m[1:, 1:], 2)))
        # top is at most the true maximum of W, up to its own rounding: the
        # law's nodes go through another matmul, whose maximum can come out
        # an ulp or so above top where c0 + |c| is flat
        assert law.majorant <= (top + lipschitz * math.pi / 4096
                                + ROUNDING_ALLOWANCE * np.sum(np.abs(m))
                                + 4.0 * np.spacing(top))

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
    assert abs(summary.mean - FERMI_MEAN) < 1e-12
    assert abs(summary.second_moment - 4.0) < 1e-12
    assert len(summary.local_maxima) == 1
    assert abs(summary.local_maxima[0] - FERMI_MODE) < 1e-12


def test_bose_distance_moments(engine_distance):
    summary = summarize(engine_distance["bose-fock"])
    assert abs(summary.mean - BOSE_MEAN) < 1e-12
    assert abs(summary.second_moment - 4.0) < 1e-12
    assert len(summary.local_maxima) == 2
    assert abs(summary.local_maxima[0] - BOSE_MODES[0]) < 1e-12
    assert abs(summary.local_maxima[1] - BOSE_MODES[1]) < 1e-12


def _scanned_maxima(fn):
    """Interior local maxima of fn on a 1e-4 grid over (0, 8)."""
    d = np.arange(1, 80000) * 1e-4
    v = fn(d)
    return d[np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1]


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_distance_maxima_match_dense_scan(spec):
    dist = distance_distribution(build_state(spec))
    got = summarize(dist).local_maxima
    want = _scanned_maxima(dist.value_at)
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)


def test_distance_maxima_through_bimodal_transition():
    # the law turns bimodal near w = 0.637; each step of 1/400 lands on one
    # side of the fold, at least 6e-4 from it
    grid = np.linspace(0.0, 8.0, 9)
    counts = set()
    for w in np.linspace(0.5, 1.0, 201):
        def mixture(d, w=w):
            return (w * closed_form_distance("bose-fock", d)
                    + (1.0 - w) * closed_form_distance("fermi-fock", d))
        law = PairDistribution(PairVariable.DISTANCE, grid, mixture(grid),
                               closure=mixture, meta={"bosonic_weight": w})
        got = summarize(law).local_maxima
        want = _scanned_maxima(mixture)
        assert len(got) == len(want), w
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)
        counts.add(len(got))
    assert counts == {1, 2}


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_angle_summary_is_exact(spec):
    state = build_state(spec)
    dist = angle_distribution(state)
    w = dist.meta["bosonic_weight"]
    summary = summarize(dist)
    assert summary.mean == math.pi / 2.0
    assert summary.second_moment == pytest.approx(
        math.pi ** 2 / 3.0 + (2.0 * w - 1.0) / 2.0, rel=0, abs=1e-15)
    # a fine trapezoid over the tabulated law agrees to its own error
    fine = angle_distribution(state, n_points=20001)
    assert abs(np.trapezoid(fine.grid ** 2 * fine.values, fine.grid)
               - summary.second_moment) < 1e-7
    v = dist.values
    inner = np.nonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1
    scanned = [float(dist.grid[i]) for i in inner]
    if v[0] > v[1]:
        scanned.insert(0, 0.0)
    if v[-1] > v[-2]:
        scanned.append(math.pi)
    if np.ptp(v) <= 1e-9:
        scanned = []
    np.testing.assert_allclose(summary.local_maxima, scanned, rtol=0,
                               atol=1e-15)


def test_noon_distance_equals_coherent(engine_distance):
    a = engine_distance["noon"]
    b = engine_distance["coherent"]
    assert np.max(np.abs(a.values - b.values)) < 1e-6


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_summary_second_moment_exact(spec):
    # the closed form loses no mass beyond d = 8
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
    verb, _ = quad(_PRINTED_DISTANCE_FORMS["bose-fock"], 0.0, 12.0)
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


def test_coherent_angle_flat():
    dist = angle_distribution(build_state(coherent()))
    assert np.max(np.abs(dist.values - 1.0 / math.pi)) < 1e-8


def test_angle_law_normalizations():
    for spec in (fermi_fock(), bose_fock(1, 1), thermal(1.0, 1.0),
                 cothermal()):
        dist = angle_distribution(build_state(spec))
        assert abs(dist.integral() - 1.0) < 1e-9, spec.kind


def test_noon_angle_law_is_flat():
    # anisotropic, yet its folded law exists: the orientation average of W
    dist = angle_distribution(build_state(noon()))
    np.testing.assert_allclose(dist.values, ANGLE_FORMS["noon"](dist.grid),
                               rtol=0, atol=1e-15)


def test_negative_law_is_inconsistent_input():
    with pytest.raises(AlgebraInconsistencyError, match="negative"):
        pairstats._clip_noise(np.array([1.0, 0.5, -1e-9]))
    np.testing.assert_array_equal(
        pairstats._clip_noise(np.array([1.0, -1e-16])), [1.0, 0.0])


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


def test_summarize_needs_bosonic_weight():
    grid = np.linspace(0.0, 8.0, 81)
    table = PairDistribution(PairVariable.DISTANCE, grid,
                             closed_form_distance("fermi-fock", grid))
    with pytest.raises(ValueError):
        summarize(table)
    law = distance_distribution(build_state(fermi_fock()))
    del law.meta["bosonic_weight"]
    with pytest.raises(ValueError):
        summarize(law)
    with pytest.raises(ValueError):
        summarize(two_angle_distribution(build_state(fermi_fock())))


def test_no_pairs_guard():
    with pytest.raises(NoPairsError):
        distance_distribution(build_state(coherent(alpha_a=0.0, alpha_b=0.0)))
