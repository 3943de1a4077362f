"""Two-mode states as their normally ordered correlators.

Every density of the library sees a two-mode state only through the first-
and second-order normally ordered correlators <adag_p a_q> and
<adag_p adag_p' a_q' a_q>, so a state is stored as those 20 numbers. Each
constructor computes them directly: product states from single-mode moments
of truncated single-mode density matrices, Fock and NOON states from their
occupations and amplitudes. Mode a comes before mode b in the fermionic
ordering convention, i.e. |1,1> = adag_a adag_b |vac>; the antisymmetry
sign bookkeeping follows from that choice.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PauliViolationError, TruncationError

# Constructors refuse truncations that drop more than this much probability.
TAIL_TOL = 1e-12

# The cothermal cutoff search stops here: a build at a higher cutoff would
# need a single-mode matrix above 2049 x 2049 complex (67 MB).
_MAX_SEARCH_CUTOFF = 2048


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

    flags carries provenance markers such as "supplement-approximated".
    """
    statistics: Statistics
    basis: Basis
    corr: Correlators
    flags: tuple = ()

    def correlators(self):
        return self.corr


def mean_number(state):
    """<N> = sum_p <adag_p a_p>."""
    return float(np.real(np.trace(state.correlators().first)))


def pair_moment(state):
    """<:N^2:> = sum_{p,p'} <adag_p adag_p' a_p' a_p>, the pair-counting
    normalization of the two-body density."""
    second = state.correlators().second
    total = sum(second[p, pp, pp, p] for p in range(2) for pp in range(2))
    return float(np.real(total))


def mode_occupations(state):
    first = state.correlators().first
    return float(np.real(first[0, 0])), float(np.real(first[1, 1]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _single_mode_moments(rho):
    """m[k, l] = Tr(adag^k a^l rho) for k, l <= 2 of a truncated matrix.

    <j+k| adag^k a^l |j+l> = sqrt((j+1)...(j+l) * (j+1)...(j+k)), and
    adag^k lifting past the cutoff gives zero, as on the truncated lattice.
    """
    dim = rho.shape[0]
    moments = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        for l in range(3):
            j = np.arange(dim - max(k, l))
            weight = np.ones(j.size)
            for t in range(1, l + 1):
                weight *= j + t
            for t in range(1, k + 1):
                weight *= j + t
            moments[k, l] = np.sum(np.sqrt(weight) * rho[j + l, j + k])
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


def _coherent_vector(alpha, cutoff):
    n = np.arange(cutoff + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    amp = np.exp(-0.5 * abs(alpha) ** 2) * np.power(complex(alpha), n) \
        * np.exp(-0.5 * log_fact)
    return amp


def _poisson_tail(intensity, cutoff):
    if intensity == 0.0:
        return 0.0
    n = np.arange(cutoff + 1)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    mass = np.exp(-intensity + n * math.log(intensity) - log_fact).sum()
    return max(0.0, 1.0 - mass)


def _required_poisson_cutoff(intensity):
    n = max(1, int(intensity))
    while _poisson_tail(intensity, n) > TAIL_TOL:
        n += 1
    return n


def make_coherent(alpha_a, alpha_b, cutoff, basis=Basis.DIPOLE):
    """Product of truncated coherent states, renormalized.

    The truncation must leave Poisson tail mass below TAIL_TOL in each mode,
    otherwise the constructor reports the cutoff that would suffice.
    """
    for alpha in (alpha_a, alpha_b):
        tail = _poisson_tail(abs(alpha) ** 2, cutoff)
        if tail > TAIL_TOL:
            need = _required_poisson_cutoff(abs(alpha) ** 2)
            raise TruncationError(
                f"coherent tail mass {tail:.3e} above {TAIL_TOL:.0e} at "
                f"cutoff {cutoff}; cutoff {need} suffices",
                required_cutoff=need)
    moments = []
    for alpha in (alpha_a, alpha_b):
        vec = _coherent_vector(alpha, cutoff)
        rho = np.outer(vec, vec.conj())
        moments.append(_single_mode_moments(rho / np.real(np.trace(rho))))
    return QuantumState(Statistics.BOSE, basis,
                        _product_correlators(*moments))


def _thermal_diag(nbar, cutoff):
    if nbar < 0:
        raise ValueError("thermal occupancy must be non-negative")
    if nbar == 0.0:
        diag = np.zeros(cutoff + 1)
        diag[0] = 1.0
        return diag
    tau = nbar / (1.0 + nbar)
    tail = tau ** (cutoff + 1)
    if tail > TAIL_TOL:
        need = int(math.ceil(math.log(TAIL_TOL) / math.log(tau))) + 1
        raise TruncationError(
            f"thermal tail mass {tail:.3e} above {TAIL_TOL:.0e} at cutoff "
            f"{cutoff}; cutoff {need} suffices", required_cutoff=need)
    diag = (1.0 - tau) * tau ** np.arange(cutoff + 1)
    return diag / diag.sum()


def make_thermal(nbar_a, nbar_b, cutoff, basis=Basis.VORTEX):
    """Product of truncated geometric (thermal) states, renormalized."""
    moments = [_single_mode_moments(np.diag(_thermal_diag(nbar, cutoff)))
               for nbar in (nbar_a, nbar_b)]
    return QuantumState(Statistics.BOSE, basis,
                        _product_correlators(*moments))


def _displaced_thermal_rows(alpha, nbar, size):
    """Rows <i|rho|0..size-1>, i = 0..size-1, of a single-mode displaced
    thermal state.

    With tau = nbar/(1+nbar) and alpha' = (1-tau) alpha, the P-function
    (a Gaussian around alpha) gives <0|rho|j> = (1-tau)
    exp(-(1-tau)|alpha|^2) conj(alpha')^j / sqrt(j!) and, by Wick's theorem,
    <i+1|rho|j> = (alpha' <i|rho|j> + tau sqrt(j) <i|rho|j-1>) / sqrt(i+1).
    Both terms share one phase, so the recursion never cancels and stays
    stable at any displacement and cutoff. The (i, j) entry depends on
    columns <= j only, so every size yields the same leading block.
    """
    tau = nbar / (1.0 + nbar)
    shrunk = (1.0 - tau) * alpha
    lift = np.sqrt(np.arange(1, size, dtype=float))
    row = np.cumprod(np.concatenate((
        [(1.0 - tau) * math.exp(-(1.0 - tau) * abs(alpha) ** 2)],
        np.conj(shrunk) / lift)))
    for i in range(size - 1):
        yield row
        nxt = shrunk * row
        nxt[1:] += tau * lift * row[:-1]
        row = nxt / lift[i]
    yield row


def _required_displaced_cutoff(alpha, nbar):
    """Smallest cutoff whose displaced-thermal tail is below TAIL_TOL, or
    None if none up to _MAX_SEARCH_CUTOFF is. Holds one row at a time."""
    mass = 0.0
    rows = _displaced_thermal_rows(alpha, nbar, _MAX_SEARCH_CUTOFF + 1)
    for n, row in enumerate(rows):
        mass += row[n].real
        if 1.0 - mass <= TAIL_TOL:
            return n
    return None


def make_cothermal(alpha, nbar_th, cutoff, basis=Basis.DIPOLE):
    """Cothermal state: coherent displacement on top of a thermal background.

    Mode a is displaced by alpha, mode b by -i*alpha (the phase relation that
    keeps the one-body density ring-shaped), both carrying thermal occupancy
    nbar_th. Interpolates make_coherent (nbar_th=0) and make_thermal
    (alpha=0). Flagged supplement-approximated: the construction follows the
    supplementary description rather than a closed-form in the main text.
    """
    moments = []
    for displacement in (alpha, -1.0j * alpha):
        rho = np.array(list(
            _displaced_thermal_rows(displacement, nbar_th, cutoff + 1)))
        # summed in row order, as the cutoff search sums it
        deficit = 1.0 - np.cumsum(np.real(np.diag(rho)))[-1]
        if deficit > TAIL_TOL:
            need = _required_displaced_cutoff(displacement, nbar_th)
            hint = (f"cutoff {need} suffices" if need is not None else
                    f"no cutoff up to {_MAX_SEARCH_CUTOFF} suffices")
            raise TruncationError(
                f"displaced-thermal tail mass {deficit:.3e} above "
                f"{TAIL_TOL:.0e} at cutoff {cutoff}; {hint}",
                required_cutoff=need)
        moments.append(_single_mode_moments(rho / np.real(np.trace(rho))))
    return QuantumState(Statistics.BOSE, basis,
                        _product_correlators(*moments),
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


def dipole_correlators(state):
    """The state's correlators in the dipole basis."""
    if state.basis is Basis.DIPOLE:
        return state.correlators()
    return _rotate(state.correlators(), _DIPOLE_TO_VORTEX.conj().T)


def pair_isotropy_defect(state):
    """How strongly the pair density breaks rotation invariance.

    Rotating the plane by angle t multiplies vortex-basis correlator entries
    by exp(i t (l_q + l_q' - l_p - l_p')) with circulation l = +/-1, so the
    one- and two-body densities are isotropic iff every entry with unbalanced
    circulation vanishes. Returns the largest unbalanced magnitude.
    """
    corr = state.correlators()
    if state.basis is Basis.DIPOLE:
        corr = _rotate(corr, _DIPOLE_TO_VORTEX)
    ell = np.array([1, -1])
    defect = 0.0
    for p in range(2):
        for q in range(2):
            if ell[p] != ell[q]:
                defect = max(defect, abs(corr.first[p, q]))
    for idx in np.ndindex(2, 2, 2, 2):
        p, pp, qp, q = idx
        if ell[p] + ell[pp] != ell[q] + ell[qp]:
            defect = max(defect, abs(corr.second[idx]))
    return float(defect)
