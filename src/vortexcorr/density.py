"""One- and two-body position densities of two-mode states.

The engine route expands the field operator in the state's own mode pair and
contracts mode products with the normally ordered correlators:

    rho1(x)     = sum_{p,q}       <adag_p a_q>              phi_p*(x) phi_q(x)
    rho2(x, x') = sum_{p,p',q,q'} <adag_p adag_p' a_q' a_q> phi_p*(x)
                  phi_p'*(x') phi_q(x) phi_q'(x')

In the real mode products q = (|phi_a|^2, |phi_b|^2, Re phi_a* phi_b,
Im phi_a* phi_b), rho2 is a real form q(x)^T K q(x') with a real 4x4 K.
rho1 integrates to <N>, rho2 to <:N^2:>. Both are Cartesian-measure
densities; polar Jacobians appear only inside integration routines. The
per-family closed forms they are checked against live in oracle.py.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraInconsistencyError
from .fock import Basis
from .modes import DIPOLE_PAIR, VORTEX_PAIR, mode_eval

IMAG_TOL = 1e-12


def basis_modes(basis):
    return VORTEX_PAIR if basis is Basis.VORTEX else DIPOLE_PAIR


def _real_checked(values, label):
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > IMAG_TOL * scale:
        raise AlgebraInconsistencyError(
            f"{label} produced imaginary residue {worst:.3e}")
    return values.real


def rho1(state, x, y):
    """One-body density at Cartesian points (vectorized)."""
    first = state.correlators().first
    modes = basis_modes(state.basis)
    amps = np.stack([mode_eval(m, x, y) for m in modes])
    values = np.einsum("pq,p...,q...->...", first, np.conj(amps), amps)
    return _real_checked(np.asarray(values), "rho1")


# T[p, q, i] with phi_p* phi_q = sum_i T[p, q, i] q_i
_REAL_PRODUCTS = np.array([[[1, 0, 0, 0], [0, 0, 1, 1j]],
                           [[0, 0, 1, -1j], [0, 1, 0, 0]]])


def _real_products(modes, x, y):
    """The real mode products q, shape (4, ...)."""
    a, b = (mode_eval(m, x, y) for m in modes)
    cross = np.conj(a) * b
    return np.stack([a.real ** 2 + a.imag ** 2, b.real ** 2 + b.imag ** 2,
                     cross.real, cross.imag])


def rho2(state, x1, y1, x2, y2):
    """Two-body density at Cartesian point pairs (vectorized).

    rho2 = sum second[a, b, c, d] phi_a*(x1) phi_d(x1) phi_b*(x2) phi_c(x2)
    = q(x1)^T K q(x2) with K_ij = sum second[a, b, c, d] T[a, d, i]
    T[b, c, j]. K is real for Hermitian correlators and is checked once;
    the point pairs meet only in one real four-term broadcast sum.
    """
    kernel = _real_checked(np.einsum(
        "abcd,adi,bcj->ij", state.correlators().second, _REAL_PRODUCTS,
        _REAL_PRODUCTS), "rho2")
    modes = basis_modes(state.basis)
    q1 = _real_products(modes, x1, y1)
    q2 = _real_products(modes, x2, y2)
    left = (kernel.T @ q1.reshape(4, -1)).reshape(q1.shape)
    return np.asarray(np.einsum("k...,k...->...", left, q2))


@dataclass
class DensityField:
    """rho1 sampled on a uniform grid; values[i, j] = rho1(x[i], y[j])."""
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    total: float


def density_grid(state, extent=6.0, step=0.05):
    """Tabulate rho1 on [-extent, extent]^2.

    The trapezoid total is effectively exact here because the integrand
    decays like a Gaussian well inside the box.
    """
    n = int(round(2.0 * extent / step)) + 1
    x = -extent + step * np.arange(n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    values = rho1(state, xx, yy)
    total = float(np.trapezoid(np.trapezoid(values, x, axis=1), x))
    return DensityField(x=x, y=x, values=values, total=total)

