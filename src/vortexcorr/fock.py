"""Two-mode states as their normally ordered correlators.

Every density of the library sees a two-mode state only through the first-
and second-order normally ordered correlators <adag_p a_q> and
<adag_p adag_p' a_q' a_q>, so a state is stored as those 20 numbers, and
the densities read them as the twelve real numbers (m, M) of harmonics. Each
constructor computes them directly: coherent, thermal and cothermal states
from the closed-form single-mode moments of displaced thermal modes, with no
Fock-space truncation; Fock and NOON states from their occupations and
amplitudes. Mode a comes before mode b in the fermionic ordering
convention, i.e. |1,1> = adag_a adag_b |vac>; the antisymmetry sign
bookkeeping follows from that choice.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import AlgebraInconsistencyError, PauliViolationError


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"


class Basis(Enum):
    VORTEX = "vortex"   # (ccw, cw) circulation modes
    DIPOLE = "dipole"   # (x, y) Cartesian dipole modes


@dataclass(frozen=True)
class Correlators:
    """first[p, q] = <adag_p a_q>; second[p, p', q', q] in that index order."""
    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class QuantumState:
    """A two-mode state, held as its normally ordered correlators.

    flags carries provenance markers such as "supplement-approximated";
    spec is the StateSpec build_state made it from, else None.
    """
    statistics: Statistics
    basis: Basis
    corr: Correlators
    flags: tuple = ()
    spec: object = None

    def correlators(self):
        return self.corr

    @cached_property
    def _harmonics(self):
        # the correlators of a state never change, so (m, M) is computed on
        # first use and kept, read-only; a failed check caches nothing
        return _real_harmonics(self.basis, self.correlators())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _single_mode_moments(alpha, nbar):
    """m[k, l] = <adag^k a^l> for k, l <= 2 of a displaced thermal mode.

    The mode's P-function is a Gaussian of variance nbar around alpha, so
    (Cahill & Glauber, Phys. Rev. 177, 1882, 1969)
    m[k, l] = sum_j C(k, j) C(l, j) j! nbar^j conj(alpha)^(k-j) alpha^(l-j).
    Coherent modes have nbar = 0, thermal modes alpha = 0.
    """
    alpha = complex(alpha)
    powers = (1.0, alpha, alpha * alpha)
    moments = np.zeros((3, 3), dtype=complex)
    for k, l in np.ndindex(3, 3):
        moments[k, l] = sum(
            math.comb(k, j) * math.comb(l, j) * math.factorial(j) * nbar ** j
            * powers[k - j].conjugate() * powers[l - j]
            for j in range(min(k, l) + 1))
    return moments


def _product_correlators(moments_a, moments_b):
    """Correlators of a bosonic product state from single-mode moments.

    Operators of different modes commute, so each normally ordered product
    factors into one moment per mode, indexed by how many creators and
    annihilators of that mode it holds.
    """
    moments = (moments_a, moments_b)

    def expect(create, annihilate):
        out = 1.0 + 0.0j
        for mode in range(2):
            out *= moments[mode][create.count(mode), annihilate.count(mode)]
        return out

    first = np.zeros((2, 2), dtype=complex)
    second = np.zeros((2, 2, 2, 2), dtype=complex)
    for p, q in np.ndindex(2, 2):
        first[p, q] = expect((p,), (q,))
    for p, pp, qp, q in np.ndindex(2, 2, 2, 2):
        second[p, pp, qp, q] = expect((p, pp), (qp, q))
    return Correlators(first=first, second=second)


def make_fock(n_a, n_b, statistics, basis=Basis.VORTEX):
    """Pure Fock state |n_a, n_b>."""
    if n_a < 0 or n_b < 0:
        raise ValueError("occupations must be non-negative")
    if statistics is Statistics.FERMI and (n_a > 1 or n_b > 1):
        raise PauliViolationError(
            f"fermionic occupations must be 0 or 1, got ({n_a}, {n_b})")
    # Tr(adag^k a^l |n><n|) = n (n-1) ... (n-k+1) when k == l
    moments = [np.diag([math.perm(n, k) for k in range(3)]).astype(complex)
               for n in (n_a, n_b)]
    corr = _product_correlators(*moments)
    if statistics is Statistics.FERMI:
        # <adag_p adag_p' a_p a_p'> = -n_a n_b: the annihilators are swapped
        for p in range(2):
            corr.second[p, 1 - p, p, 1 - p] *= -1.0
    return QuantumState(statistics, basis, corr)


def make_coherent(alpha_a, alpha_b, basis=Basis.DIPOLE):
    """Product of coherent states with amplitudes alpha_a, alpha_b."""
    return QuantumState(Statistics.BOSE, basis, _product_correlators(
        _single_mode_moments(alpha_a, 0.0),
        _single_mode_moments(alpha_b, 0.0)))


def make_thermal(nbar_a, nbar_b, basis=Basis.VORTEX):
    """Product of thermal (geometric) states with mean occupations nbar."""
    return QuantumState(Statistics.BOSE, basis, _product_correlators(
        _single_mode_moments(0.0, nbar_a),
        _single_mode_moments(0.0, nbar_b)))


def make_cothermal(alpha, nbar_th, basis=Basis.DIPOLE):
    """Cothermal state: coherent displacement on top of a thermal background.

    Mode a is displaced by alpha, mode b by -i*alpha (the phase relation that
    keeps the one-body density ring-shaped), both carrying thermal occupancy
    nbar_th. Interpolates make_coherent (nbar_th=0) and make_thermal
    (alpha=0). Flagged supplement-approximated: the construction follows the
    supplementary description rather than a closed-form in the main text.
    """
    return QuantumState(Statistics.BOSE, basis, _product_correlators(
        _single_mode_moments(alpha, nbar_th),
        _single_mode_moments(-1.0j * alpha, nbar_th)),
        flags=("supplement-approximated",))


def make_noon(basis=Basis.VORTEX):
    """Two-particle NOON state (|2,0> - |0,2>)/sqrt(2) up to a global phase.

    For a two-boson state psi, lowered[q', q] = <vac| a_q' a_q |psi> fixes
    both correlators, because <1_r| a_q |psi> = lowered[r, q] as well.
    """
    c20, c02 = 1.0j / math.sqrt(2.0), -1.0j / math.sqrt(2.0)
    lowered = math.sqrt(2.0) * np.diag([c20, c02])
    first = lowered.conj().T @ lowered
    second = np.einsum("bp,cq->pbcq", lowered.conj(), lowered)
    return QuantumState(Statistics.BOSE, basis,
                        Correlators(first=first, second=second))


# ---------------------------------------------------------------------------
# basis rotation
# ---------------------------------------------------------------------------

# Single-particle map from dipole to vortex annihilation operators:
# a_ccw = (a_x - i a_y)/sqrt2, a_cw = (a_x + i a_y)/sqrt2. Note det = i: the
# map is not a plain beamsplitter, it carries a relative phase that matters
# for coherences between occupation states (e.g. the NOON superposition).
_DIPOLE_TO_VORTEX = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / math.sqrt(2.0)


def _rotate(corr, u):
    """Correlators in the mode basis b_p = sum_q u[p, q] a_q."""
    uc = u.conj()
    first = np.einsum("pr,qs,rs->pq", uc, u, corr.first)
    second = np.einsum("pa,qb,rc,sd,abcd->pqrs", uc, uc, u, u, corr.second)
    return Correlators(first=first, second=second)


def change_basis(state):
    """Re-express the state in the other mode basis (dipole <-> vortex).

    The physical state is unchanged; only the mode labels rotate, which acts
    on the correlators as a tensor rotation by the single-particle map.
    """
    if state.basis is Basis.DIPOLE:
        u, basis = _DIPOLE_TO_VORTEX, Basis.VORTEX
    else:
        u, basis = _DIPOLE_TO_VORTEX.conj().T, Basis.DIPOLE
    return QuantumState(state.statistics, basis,
                        _rotate(state.correlators(), u), flags=state.flags)


# (A_0, A_1, A_2) per basis: phi_p* phi_q = sum_j h_j (A_j)_pq (harmonics)
_HARMONICS = {Basis.VORTEX: np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                                      [[0, -1j], [1j, 0]]]),
              Basis.DIPOLE: np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]],
                                      [[0, 1], [1, 0]]])}


def harmonics(state):
    """The state as twelve real numbers (m, M).

    Every mode product is phi_p* phi_q = sum_j h_j (A_j)_pq in the shell
    harmonics h(x) = exp(-|x|^2) (|x|^2, x^2 - y^2, 2xy) / pi, so with
    m_j = sum first[p, q] (A_j)_pq and M_jk = sum second[a, b, c, d]
    (A_j)_ad (A_k)_bc, rho1(x) = m . h(x) and rho2(x, x') = h(x)^T M h(x').
    An imaginary residue above 1e-12 of the largest entry of m or of M
    raises AlgebraInconsistencyError. Computed once per state; the arrays
    are read-only.
    """
    return state._harmonics


def _real_harmonics(basis, corr):
    a = _HARMONICS[basis]
    raw = (np.einsum("pq,jpq->j", corr.first, a),
           np.einsum("abcd,jad,kbc->jk", corr.second, a, a))
    for part in raw:
        worst = float(np.max(np.abs(part.imag)))
        if worst > 1e-12 * max(1.0, float(np.max(np.abs(part.real)))):
            raise AlgebraInconsistencyError(
                f"correlators produced imaginary residue {worst:.3e}")
    m, matrix = raw[0].real, raw[1].real
    m.flags.writeable = matrix.flags.writeable = False
    return m, matrix


def pair_isotropy_defect(state):
    """How strongly the densities break rotation invariance.

    A rotation by t turns h_1 + i h_2 by exp(2it), so rho1 and rho2 are
    isotropic iff m_1 = m_2 = 0, M_01 = M_02 = M_10 = M_20 = 0, M_11 = M_22
    and M_12 = -M_21. Returns the largest violation relative to the largest
    entry of m or of M, the scale each rounds at, so the result does not
    grow with the occupation.
    """
    m, matrix = harmonics(state)
    defect = 0.0
    for entries, broken in (
            (m, m[1:]),
            (matrix, (matrix[0, 1], matrix[0, 2], matrix[1, 0], matrix[2, 0],
                      matrix[1, 1] - matrix[2, 2],
                      matrix[1, 2] + matrix[2, 1]))):
        scale = float(np.max(np.abs(entries)))
        if scale > 0.0:
            defect = max(defect, float(np.max(np.abs(broken))) / scale)
    return defect
