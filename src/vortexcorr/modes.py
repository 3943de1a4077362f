"""Single-particle modes of the 2D harmonic trap.

All lengths are measured in units of the single-charge vortex radius (the
radius where the ring density r^2 exp(-r^2) peaks). The four modes of the
first excited shell are the objects of interest:

    dipole_x  = phi_1(x) phi_0(y)
    dipole_y  = phi_0(x) phi_1(y)
    vortex_ccw = (dipole_x + i dipole_y) / sqrt(2)   (circulation +1)
    vortex_cw  = (dipole_x - i dipole_y) / sqrt(2)   (circulation -1)

The two vortex modes have identical ring-shaped intensity; only their phase
winding differs. Everything downstream (densities, pair statistics, the
sampler, the cross-check oracle) evaluates modes through this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderLimitError
from .quadrature import DEFAULT_ORDER, EXTENT, plane_grid

# Highest oscillator/Hermite order supported by the recurrences below.
MAX_ORDER = 64


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    H_{k+1} = 2x H_k - 2k H_{k-1}. Vectorized over x.
    """
    if n < 0 or n > MAX_ORDER:
        raise OrderLimitError(f"Hermite order {n} outside [0, {MAX_ORDER}]")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def phi1d(n, x):
    """Normalized 1D harmonic oscillator eigenfunction.

    phi_n(x) = (2^n n! sqrt(pi))^{-1/2} exp(-x^2/2) H_n(x). The
    normalization prefactor is evaluated in the log domain so that orders up
    to MAX_ORDER stay inside float64 range.
    """
    if n < 0 or n > MAX_ORDER:
        raise OrderLimitError(f"oscillator order {n} outside [0, {MAX_ORDER}]")
    x = np.asarray(x, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    return hermite(n, x) * np.exp(log_norm - 0.5 * x * x)


@dataclass(frozen=True)
class Mode:
    """A single-particle mode label.

    kind is one of 'vortex-ccw', 'vortex-cw', 'dipole-x', 'dipole-y'.
    """
    kind: str


VORTEX_CCW = Mode("vortex-ccw")
VORTEX_CW = Mode("vortex-cw")
DIPOLE_X = Mode("dipole-x")
DIPOLE_Y = Mode("dipole-y")


# Mode pair backing each two-mode basis tag, in (mode a, mode b) order.
VORTEX_PAIR = (VORTEX_CCW, VORTEX_CW)
DIPOLE_PAIR = (DIPOLE_X, DIPOLE_Y)


def mode_eval(mode, x, y):
    """Complex mode amplitude at Cartesian points (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = phi1d(1, x) * phi1d(0, y)
    dy = phi1d(0, x) * phi1d(1, y)
    if mode.kind == "dipole-x":
        return dx + 0.0j
    if mode.kind == "dipole-y":
        return dy + 0.0j
    if mode.kind == "vortex-ccw":
        return (dx + 1.0j * dy) / math.sqrt(2.0)
    if mode.kind == "vortex-cw":
        return (dx - 1.0j * dy) / math.sqrt(2.0)
    raise ValueError(f"unknown mode kind {mode.kind!r}")


def overlap(mode_a, mode_b, order=DEFAULT_ORDER, extent=EXTENT):
    """<a|b> by tensor Gauss-Legendre quadrature over the mode box."""
    x, y, w = plane_grid(order, extent)
    return np.sum(np.conj(mode_eval(mode_a, x, y)) * mode_eval(mode_b, x, y)
                  * w)


def rotate_xy(x, y, angle):
    """Rotate points counterclockwise about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


@dataclass(frozen=True)
class Point2D:
    """Cartesian point with polar accessors (theta in [0, 2*pi))."""
    x: float
    y: float

    @property
    def r(self):
        return math.hypot(self.x, self.y)

    @property
    def theta(self):
        return math.atan2(self.y, self.x) % (2.0 * math.pi)
