"""Second-quantized layer: correlators, basis changes, state families."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from vortexcorr.density import rho1, rho2
from vortexcorr.errors import AlgebraInconsistencyError, PauliViolationError
from vortexcorr.fock import (Basis, Correlators, QuantumState, Statistics,
                             _product_correlators, _rotate,
                             _single_mode_moments, change_basis, harmonics,
                             make_coherent, make_cothermal, make_fock,
                             make_noon, make_thermal, pair_isotropy_defect)
from vortexcorr.states import (bose_fock, build_state, coherent, cothermal,
                               fermi_fock, noon, thermal)

SHIPPED = (fermi_fock(), bose_fock(), bose_fock(2, 1), coherent(), thermal(),
           cothermal(), noon())


def _assert_same_correlators(got, want, atol):
    np.testing.assert_allclose(got.correlators().first,
                               want.correlators().first, atol=atol)
    np.testing.assert_allclose(got.correlators().second,
                               want.correlators().second, atol=atol)


def mean_number(state):
    """<N> = sum_p <adag_p a_p>, which is m_0 of harmonics."""
    return float(harmonics(state)[0][0])


def pair_moment(state):
    """<:N^2:> = sum_{p,p'} <adag_p adag_p' a_p' a_p>, which is M_00 of
    harmonics: the pair-counting normalization of the two-body density."""
    return float(harmonics(state)[1][0, 0])


def test_mean_numbers():
    assert mean_number(make_fock(1, 1, Statistics.FERMI)) == pytest.approx(2.0, abs=1e-13)
    assert mean_number(make_fock(2, 0, Statistics.BOSE)) == pytest.approx(2.0, abs=1e-13)
    assert mean_number(make_coherent(1.0j, 1.0)) == pytest.approx(2.0, abs=1e-13)
    assert mean_number(make_thermal(1.0, 1.0)) == pytest.approx(2.0, abs=1e-13)
    assert mean_number(make_cothermal(math.sqrt(0.5), 0.5)) == pytest.approx(2.0, abs=1e-13)
    assert mean_number(make_noon()) == pytest.approx(2.0, abs=1e-13)


def test_pair_moments():
    # <:N^2:> = <N(N-1)> for definite N=2 states, <N>^2 for coherent,
    # 6 for two unit thermal modes, 5.5 for the default cothermal mix
    assert pair_moment(make_fock(1, 1, Statistics.FERMI)) == pytest.approx(2.0, abs=1e-13)
    assert pair_moment(make_fock(1, 1, Statistics.BOSE)) == pytest.approx(2.0, abs=1e-13)
    assert pair_moment(make_fock(2, 0, Statistics.BOSE)) == pytest.approx(2.0, abs=1e-13)
    assert pair_moment(make_noon()) == pytest.approx(2.0, abs=1e-13)
    assert pair_moment(make_coherent(1.0j, 1.0)) == pytest.approx(4.0, abs=1e-13)
    assert pair_moment(make_thermal(1.0, 1.0)) == pytest.approx(6.0, abs=1e-13)
    assert pair_moment(make_cothermal(math.sqrt(0.5), 0.5)) == pytest.approx(5.5, abs=1e-13)


def test_fermi_pauli_guard():
    with pytest.raises(PauliViolationError):
        make_fock(2, 0, Statistics.FERMI)


def _displaced_thermal_rho(alpha, nbar, size):
    """<i|rho|j>, i, j < size, of a displaced thermal state.

    With tau = nbar/(1+nbar) and alpha' = (1-tau) alpha, the rows follow
    from <0|rho|j> = (1-tau) exp(-(1-tau)|alpha|^2) conj(alpha')^j / sqrt(j!)
    and the Wick recursion
    <i+1|rho|j> = (alpha' <i|rho|j> + tau sqrt(j) <i|rho|j-1>) / sqrt(i+1).
    """
    tau = nbar / (1.0 + nbar)
    shrunk = (1.0 - tau) * alpha
    lift = np.sqrt(np.arange(1, size, dtype=float))
    rho = np.empty((size, size), dtype=complex)
    rho[0] = np.cumprod(np.concatenate((
        [(1.0 - tau) * math.exp(-(1.0 - tau) * abs(alpha) ** 2)],
        np.conj(shrunk) / lift)))
    for i in range(size - 1):
        rho[i + 1] = shrunk * rho[i]
        rho[i + 1, 1:] += tau * lift * rho[i, :-1]
        rho[i + 1] /= lift[i]
    return rho


def _truncated_moments(alpha, nbar):
    """Tr(adag^k a^l rho), k, l <= 2, of the displaced thermal state cut to
    the Fock levels <= the smallest cutoff whose tail mass is below 1e-18,
    and renormalised: the truncated route the closed form replaced."""
    rho = _displaced_thermal_rho(alpha, nbar, 400)
    tail = np.cumsum(np.real(np.diag(rho))[::-1])[::-1]
    cutoff = int(np.argmax(tail < 1e-18)) - 1
    assert cutoff > 0 and tail[cutoff + 1] < 1e-18
    rho = rho[:cutoff + 1, :cutoff + 1]
    rho /= np.real(np.trace(rho))
    moments = np.zeros((3, 3), dtype=complex)
    for k, l in np.ndindex(3, 3):
        # <j+k| adag^k a^l |j+l> = sqrt((j+1)...(j+l) (j+1)...(j+k))
        j = np.arange(cutoff + 1 - max(k, l))
        weight = np.ones(j.size)
        for t in range(1, l + 1):
            weight *= j + t
        for t in range(1, k + 1):
            weight *= j + t
        moments[k, l] = np.sum(np.sqrt(weight) * rho[j + l, j + k])
    return moments


def _random_modes():
    """(alpha, nbar) of random displaced thermal modes, |alpha|, nbar <= 3."""
    rng = np.random.default_rng(7)
    return [(rng.uniform(0.0, 3.0) * np.exp(2j * math.pi * rng.uniform()),
             rng.uniform(0.0, 3.0)) for _ in range(12)]


@pytest.mark.parametrize("alpha, nbar", _random_modes())
def test_closed_moments_match_truncated_route(alpha, nbar):
    want = _truncated_moments(alpha, nbar)
    got = _single_mode_moments(alpha, nbar)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_shipped_states_match_truncated_route():
    alpha = math.sqrt(0.5)
    for spec, modes in ((coherent(), [(1.0j, 0.0), (1.0, 0.0)]),
                        (thermal(), [(0.0, 1.0), (0.0, 1.0)]),
                        (cothermal(), [(alpha, 0.5), (-1.0j * alpha, 0.5)])):
        got = build_state(spec).correlators()
        want = _product_correlators(*(_truncated_moments(*m) for m in modes))
        for g, w in ((got.first, want.first), (got.second, want.second)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), spec


def test_fock_correlators_exact():
    corr = make_fock(1, 1, Statistics.BOSE).correlators()
    np.testing.assert_allclose(corr.first, np.eye(2), atol=1e-14)
    # <adag_a adag_b b a> = 1, repeated-mode pairs vanish for (1,1)
    assert corr.second[0, 1, 1, 0] == pytest.approx(1.0, abs=1e-14)
    assert abs(corr.second[0, 0, 0, 0]) < 1e-14

    corr20 = make_fock(2, 0, Statistics.BOSE).correlators()
    assert corr20.second[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-14)


def test_fermi_repeated_creation_index_zero():
    second = make_fock(1, 1, Statistics.FERMI).correlators().second
    for p in range(2):
        # adag_p adag_p annihilates any fermionic state
        assert np.all(np.abs(second[p, p, :, :]) == 0.0)
        assert np.all(np.abs(second[:, :, p, p]) == 0.0)


def test_fermi_exchange_antisymmetry():
    second = make_fock(1, 1, Statistics.FERMI).correlators().second
    np.testing.assert_allclose(second[0, 1], -second[1, 0], atol=1e-14)


def test_coherent_factorization():
    corr = make_coherent(0.7j, -0.3 + 0.4j).correlators()
    alpha = np.array([0.7j, -0.3 + 0.4j])
    want_first = np.conj(alpha)[:, None] * alpha[None, :]
    np.testing.assert_allclose(corr.first, want_first, atol=1e-12)
    want_second = np.einsum("p,q,r,s->pqrs", np.conj(alpha), np.conj(alpha),
                            alpha, alpha)
    # second[p,p',q',q] = conj(a_p) conj(a_p') a_q' a_q
    np.testing.assert_allclose(corr.second,
                               want_second.transpose(0, 1, 2, 3), atol=1e-12)


def test_thermal_correlators():
    corr = make_thermal(1.0, 0.5).correlators()
    np.testing.assert_allclose(corr.first, np.diag([1.0, 0.5]), atol=1e-15)
    # <adag adag a a> = 2 nbar^2 per mode, cross terms nbar_a nbar_b
    assert corr.second[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-15)
    assert corr.second[1, 1, 1, 1] == pytest.approx(0.5, abs=1e-15)
    assert corr.second[0, 1, 1, 0] == pytest.approx(0.5, abs=1e-15)


def test_bose_basis_identity():
    # |1,1> in dipoles maps onto (|2,0> - |0,2>)/sqrt(2) in vortices
    state = make_fock(1, 1, Statistics.BOSE, Basis.DIPOLE)
    rotated = change_basis(state)
    assert rotated.basis is Basis.VORTEX
    # <adag_p a_q> = delta_pq; <adag_p^2 a_q^2> = +1 for p == q, else -1
    want_second = np.zeros((2, 2, 2, 2))
    want_second[0, 0, 0, 0] = want_second[1, 1, 1, 1] = 1.0
    want_second[0, 0, 1, 1] = want_second[1, 1, 0, 0] = -1.0
    corr = rotated.correlators()
    np.testing.assert_allclose(corr.first, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(corr.second, want_second, atol=1e-12)


def test_fermi_basis_identity():
    # |1,1> is basis invariant for fermions (filled two-mode shell)
    state = make_fock(1, 1, Statistics.FERMI, Basis.DIPOLE)
    rotated = change_basis(state)
    assert rotated.basis is Basis.VORTEX
    _assert_same_correlators(rotated, state, atol=1e-12)


def test_basis_round_trip():
    for build in (lambda: make_fock(1, 1, Statistics.BOSE, Basis.VORTEX),
                  lambda: make_thermal(0.3, 0.3),
                  lambda: make_coherent(1.0j, 1.0)):
        state = build()
        back = change_basis(change_basis(state))
        assert back.basis is state.basis
        _assert_same_correlators(back, state, atol=1e-11)


def test_correlators_basis_covariant():
    # <N>, <:N^2:> and the isotropy defect do not depend on the basis labels
    state = make_thermal(0.5, 0.5)
    rotated = change_basis(state)
    assert mean_number(rotated) == pytest.approx(mean_number(state), abs=1e-10)
    assert pair_moment(rotated) == pytest.approx(pair_moment(state), abs=1e-9)


def test_noon_is_rotated_bose11():
    # the bosonic |1,1> dipole state IS the (|2,0>-|0,2>)/sqrt(2) vortex state
    noon_state = make_noon(Basis.VORTEX)
    rotated = change_basis(make_fock(1, 1, Statistics.BOSE, Basis.DIPOLE))
    assert rotated.basis is noon_state.basis
    _assert_same_correlators(rotated, noon_state, atol=1e-12)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
@pytest.mark.parametrize("basis", ["vortex", "dipole"])
def test_change_basis_keeps_densities(spec, basis):
    state = build_state(replace(spec, basis=basis))
    rotated = change_basis(state)
    assert rotated.basis is not state.basis
    axis = np.linspace(-2.5, 2.5, 6)
    x1, y1, x2, y2 = np.meshgrid(axis, axis, axis[::-1], axis + 0.3,
                                 indexing="ij")
    np.testing.assert_allclose(rho1(rotated, x1, y1), rho1(state, x1, y1),
                               atol=1e-12)
    np.testing.assert_allclose(rho2(rotated, x1, y1, x2, y2),
                               rho2(state, x1, y1, x2, y2), atol=1e-12)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.kind)
def test_correlators_hermitian(spec):
    state = build_state(spec)
    for s in (state, change_basis(state)):
        corr = s.correlators()
        # <adag_p a_q>* = <adag_q a_p>, <adag_p adag_p' a_q' a_q>* =
        # <adag_q adag_q' a_p' a_p>
        np.testing.assert_allclose(corr.first, corr.first.conj().T,
                                   atol=1e-14)
        np.testing.assert_allclose(
            corr.second, corr.second.transpose(3, 2, 1, 0).conj(),
            atol=1e-14)


def test_cli_import_leaves_out_scipy_linalg():
    code = ("import sys, vortexcorr.cli; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_mode_occupations():
    first = make_fock(2, 0, Statistics.BOSE).correlators().first
    assert (first[0, 0], first[1, 1]) == pytest.approx((2.0, 0.0),
                                                       abs=1e-13)


@pytest.mark.parametrize("order", ["first", "second"])
def test_harmonics_reject_an_imaginary_residue(order):
    # non-Hermitian correlators give a complex m or M; harmonics checks
    # both at once, so even rho1 refuses a fault in the second order
    first = np.eye(2, dtype=complex)
    second = np.zeros((2, 2, 2, 2), dtype=complex)
    second[0, 1, 1, 0] = 1.0
    if order == "first":
        first[0, 1] = 0.5j
    else:
        second[0, 1, 1, 0] += 0.5j
    state = QuantumState(Statistics.BOSE, Basis.VORTEX,
                         Correlators(first=first, second=second))
    for read in (harmonics, lambda s: rho1(s, 0.3, 0.4)):
        with pytest.raises(AlgebraInconsistencyError, match="imaginary"):
            read(state)


def test_isotropy_defect_flags_noon():
    assert pair_isotropy_defect(make_fock(1, 1, Statistics.FERMI)) < 1e-12
    assert pair_isotropy_defect(make_thermal(1.0, 1.0)) < 1e-10
    assert pair_isotropy_defect(make_noon()) > 0.5
    # NOON turned by pi/8 has M_11 = M_22, and only M_12 + M_21 shows its
    # anisotropy; one dipole quantum has no pairs, and only m_1 shows it
    turn = np.diag(np.exp([0.125j * math.pi, -0.125j * math.pi]))
    turned = QuantumState(Statistics.BOSE, Basis.VORTEX,
                          _rotate(make_noon().correlators(), turn))
    assert pair_isotropy_defect(turned) > 0.5
    assert pair_isotropy_defect(
        make_fock(1, 0, Statistics.BOSE, Basis.DIPOLE)) > 0.5
