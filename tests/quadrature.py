"""Quadrature rules for the tests' reference integrals."""

import numpy as np


def gauss_legendre(order, lo, hi):
    """Nodes and weights of the Gauss-Legendre rule mapped to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
