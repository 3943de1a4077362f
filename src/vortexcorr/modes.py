"""Single-particle modes of the 2D harmonic trap.

All lengths are measured in units of the single-charge vortex radius (the
radius where the ring density r^2 exp(-r^2) peaks). Every mode in use
lies in the first excited shell, so each one has the closed form

    phi_v(x) = sqrt(2/pi) (v . x) exp(-|x|^2 / 2)

for a unit vector v in C^2:

    dipole_x   v = (1, 0)
    dipole_y   v = (0, 1)
    vortex_ccw v = (1, +i) / sqrt(2)   (circulation +1)
    vortex_cw  v = (1, -i) / sqrt(2)   (circulation -1)

The two vortex modes have identical ring-shaped intensity; only their phase
winding differs. The engine evaluates no mode, only the shell harmonics of
density.py, and the cross-check oracle evaluates the closed form itself.
"""

import math
from dataclasses import dataclass

import numpy as np

_NORM = math.sqrt(2.0 / math.pi)
_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Mode:
    """A first-shell mode: a label and its unit vector v = (v_x, v_y)."""
    kind: str
    v: tuple


VORTEX_CCW = Mode("vortex-ccw", (_HALF + 0j, 1j * _HALF))
VORTEX_CW = Mode("vortex-cw", (_HALF + 0j, -1j * _HALF))
DIPOLE_X = Mode("dipole-x", (1 + 0j, 0j))
DIPOLE_Y = Mode("dipole-y", (0j, 1 + 0j))


# Mode pair backing each two-mode basis tag, in (mode a, mode b) order.
VORTEX_PAIR = (VORTEX_CCW, VORTEX_CW)
DIPOLE_PAIR = (DIPOLE_X, DIPOLE_Y)


def mode_eval(mode, x, y):
    """Complex mode amplitude at Cartesian points (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    vx, vy = mode.v
    with np.errstate(over="ignore"):  # far out |x|^2 = inf, exp(-inf) = 0
        gauss = _NORM * np.exp(-0.5 * (x * x + y * y))
    return (vx * x + vy * y) * gauss
