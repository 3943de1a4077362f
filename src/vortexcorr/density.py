"""One- and two-body position densities of two-mode states.

The engine route expands the field operator in the state's own mode pair and
contracts mode products with the normally ordered correlators:

    rho1(x)     = sum_{p,q}       <adag_p a_q>              phi_p*(x) phi_q(x)
    rho2(x, x') = sum_{p,p',q,q'} <adag_p adag_p' a_q' a_q> phi_p*(x)
                  phi_p'*(x') phi_q(x) phi_q'(x')

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


def _mode_products(modes, x, y):
    """P[(p, q)] = phi_p*(x) phi_q(x), shape (4, ...)."""
    amps = np.stack([mode_eval(m, x, y) for m in modes])
    return (np.conj(amps)[:, None] * amps[None, :]).reshape(
        (4,) + amps.shape[1:])


def rho2(state, x1, y1, x2, y2):
    """Two-body density at Cartesian point pairs (vectorized).

    rho2 is bilinear in the mode products: with S[(a, d), (b, c)] =
    second[a, b, c, d] it is the 4x4 sandwich P(x1)^T S P(x2). S meets
    P(x1) in one small matrix product, which then meets P(x2) in a
    four-term broadcast sum.
    """
    second = state.correlators().second
    modes = basis_modes(state.basis)
    p1 = _mode_products(modes, x1, y1)
    p2 = _mode_products(modes, x2, y2)
    # second[p, p', q', q] contracted with phi_p*(1) phi_q(1) phi_p'*(2) phi_q'(2);
    # sandwich[(b, c), (a, d)] = second[a, b, c, d] is S transposed
    sandwich = second.transpose(1, 2, 0, 3).reshape(4, 4)
    left = (sandwich @ p1.reshape(4, -1)).reshape(p1.shape)
    values = np.einsum("k...,k...->...", left, p2)
    return _real_checked(np.asarray(values), "rho2")


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

