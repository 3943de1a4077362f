"""One- and two-body position densities of two-mode states.

Every mode lies in the trap's first excited shell, so every mode product
phi_p*(x) phi_q(x) is a real combination of the three shell harmonics
h(x) = exp(-|x|^2) (|x|^2, x^2 - y^2, 2xy) / pi, and the correlators give
rho1(x) = m . h(x) and rho2(x, x') = h(x)^T M h(x') with the real m and M
of fock.harmonics. rho1 integrates to <N>, rho2 to <:N^2:>. Both are
Cartesian-measure densities; polar Jacobians appear only inside
integration routines. The per-family closed forms they are checked
against live in oracle.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import harmonics

# beyond |x| = 30 exp(-|x|^2) underflows to 0, so clipping the coordinates
# there changes no value and keeps |x|^2 finite
_FAR = 30.0


def shell_harmonics(x, y):
    """h at Cartesian points, shape (3, ...) (vectorized)."""
    x = np.clip(np.asarray(x, dtype=float), -_FAR, _FAR)
    y = np.clip(np.asarray(y, dtype=float), -_FAR, _FAR)
    r2 = x * x + y * y
    gauss = np.exp(-r2) / math.pi
    return np.stack([r2 * gauss, (x - y) * (x + y) * gauss,
                     2.0 * x * y * gauss])


def rho1(state, x, y):
    """One-body density m . h(x) at Cartesian points (vectorized)."""
    m = harmonics(state)[0]
    return np.asarray(np.einsum("j,j...->...", m, shell_harmonics(x, y)))


def rho2(state, x1, y1, x2, y2, out=None):
    """Two-body density h(x1)^T M h(x2) at Cartesian point pairs
    (vectorized); the point pairs meet only in one real three-term
    broadcast sum, written to `out` if given."""
    matrix = harmonics(state)[1]
    h1 = shell_harmonics(x1, y1)
    h2 = shell_harmonics(x2, y2)
    left = (matrix.T @ h1.reshape(3, -1)).reshape(h1.shape)
    return np.asarray(np.einsum("k...,k...->...", left, h2, out=out))


@dataclass
class DensityField:
    """rho1 sampled on a uniform grid; values[i, j] = rho1(x[i], y[j])."""
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    total: float


def density_grid(state, extent=6.0, step=0.05):
    """Tabulate rho1 on [-extent, extent]^2, a block of at most 2^14 grid
    points at a time. The trapezoid total is effectively exact here
    because the integrand decays like a Gaussian well inside the box."""
    n = int(round(2.0 * extent / step)) + 1
    x = -extent + step * np.arange(n)
    values, rows = np.empty((n, n)), np.empty(n)  # rows: integrals over y
    per = max(1, (1 << 14) // n)
    for lo in range(0, n, per):
        values[lo:lo + per] = rho1(state, x[lo:lo + per, None], x)
        rows[lo:lo + per] = np.trapezoid(values[lo:lo + per], x, axis=1)
    return DensityField(x=x, y=x, values=values,
                        total=float(np.trapezoid(rows, x)))
