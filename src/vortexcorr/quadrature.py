"""Quadrature rules used throughout the library.

Gauss-Legendre rules handle the Gaussian-weighted radial/Cartesian
integrals.
"""

import numpy as np

# Mode functions are numerically zero beyond this box (exp(-18) ~ 1.5e-8 on
# the amplitude, squared in any density), so [-EXTENT, EXTENT]^2 is the
# integration domain for Cartesian quadratures.
EXTENT = 6.0


def gauss_legendre(order, lo, hi):
    """Nodes and weights of the Gauss-Legendre rule mapped to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
