"""Quadrature grids used throughout the library.

Gauss-Legendre rules handle the Gaussian-weighted radial/Cartesian
integrals.
"""

import numpy as np

# Mode functions are numerically zero beyond this box (exp(-18) ~ 1.5e-8 on
# the amplitude, squared in any density), so [-EXTENT, EXTENT]^2 is the
# integration domain for Cartesian quadratures.
EXTENT = 6.0

# Order used for mode overlaps; orthonormality holds to better than 1e-10.
DEFAULT_ORDER = 64


def gauss_legendre(order, lo, hi):
    """Nodes and weights of the Gauss-Legendre rule mapped to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def plane_grid(order=DEFAULT_ORDER, extent=EXTENT):
    """Tensor Gauss-Legendre grid on [-extent, extent]^2.

    Returns flat arrays (x, y, w) with len == order**2.
    """
    x1, w1 = gauss_legendre(order, -extent, extent)
    xx, yy = np.meshgrid(x1, x1, indexing="ij")
    ww = np.outer(w1, w1)
    return xx.ravel(), yy.ravel(), ww.ravel()
