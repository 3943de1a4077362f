"""Pair-distance and pair-angle distributions derived from rho2.

Delta-constrained integrals are computed by coordinate changes, never by
binning a 4D lattice:

  distance   D(d)  = (d / N2) int dR int dgamma
                       rho2(R + (d/2) e_gamma, R - (d/2) e_gamma)
  rel angle  f(D)  = (1 / N2) int r dr int s ds int dphi
                       rho2((r, phi), (s, phi + D)),  folded to [0, pi)
  two angle  J(t, v) = (1 / N2) int r dr int s ds rho2((r, t), (s, v))

with N2 = <:N^2:> so every distribution integrates to 1.

All three rest on rho2(x, x') = h(x)^T M h(x') (density.py), with the shell
harmonics h(x) = exp(-|x|^2) (|x|^2, x^2 - y^2, 2xy) / pi and the real
3x3 M of fock.harmonics; N2 = M_00.

The distance law is an exact kernel contraction: the Gaussian integral
over R and the average over gamma pair each harmonic with itself only,

  D(d) = d exp(-d^2/2) [M_00 (2 + d^4/4) + (M_11 + M_22)(1 - d^2 + d^4/8)]
         / (4 N2)
       = d exp(-d^2/2) [s (1 + d^4/8) + t d^2] / (4 N2)

with the two state numbers s = 2 M_00 + M_11 + M_22 and t = -(M_11 +
M_22). s + t = 2 N2, hence int D = 1 and E[d^2] = 4 for every state. With
the bosonic weight w = s / (4 N2), D = w D_B + (1 - w) D_F is a mixture of
the two-boson and two-fermion laws: w = 0 for fermions, w in [1/2, 1] for
bosons, 1/2 for coherent states.

The angle laws rest on the ring factorisation. In polar coordinates
h(r, theta) = r^2 exp(-r^2) g(theta) / pi with g(x) = (1, cos 2x, sin 2x),
so all angular physics sits in the nine real numbers of M,

  W(t, v) = g(t)^T M g(v),

and each radial integral int r dr r^2 exp(-r^2) / pi = 1/(2 pi) is a
constant. Hence J(t, v) = W(t, v) / (4 pi^2 N2), and f(D) is the
phi-average of W(phi, phi + D) over 2 pi N2. g has period pi, so
f(D + pi) = f(D) and the law folded to [0, pi) is 2 f(D),
(M_00 + [(M_11 + M_22) cos 2D + (M_12 - M_21) sin 2D] / 2) / (pi N2).
rho2 is exchange symmetric, so M is symmetric and the sin 2D term is 0:
for every state, isotropic or not, the folded law is
(N2 - (t/2) cos 2D) / (pi N2) = (1 + (2w - 1) cos 2D) / pi with the
same w: one number summarises every distance and relative-angle law (see
summarize). The paper's closed forms these laws are graded against live
in oracle.py.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AlgebraInconsistencyError, NoPairsError
from .fock import harmonics

DISTANCE_MAX = 8.0
DEFAULT_DISTANCE_POINTS = 801
DEFAULT_ANGLE_POINTS = 361
DEFAULT_TWO_ANGLE_POINTS = 180

PAIR_WEIGHT_TOL = 1e-14
# the pair_isotropy_defect above which pairangle refuses a state
ISOTROPY_TOL = 1e-10


class PairVariable(Enum):
    DISTANCE = "distance"
    REL_ANGLE = "rel-angle"
    TWO_ANGLE = "two-angle"


@dataclass
class PairDistribution:
    """Normalized density over d, folded relative angle, or the angle pair.

    values is 1D for DISTANCE / REL_ANGLE and 2D (grid x grid) for
    TWO_ANGLE. closure is the analytic density of an engine law, which
    value_at evaluates; a histogram has none. The engine's distance and
    relative-angle laws carry meta["bosonic_weight"], which summarize reads.
    """
    variable: PairVariable
    grid: np.ndarray
    values: np.ndarray
    normalization: float = 1.0
    closure: object = None
    meta: dict = field(default_factory=dict)

    def value_at(self, x, y=None):
        return self.closure(x) if y is None else self.closure(x, y)

    def integral(self):
        """Mass of the tabulated values over the domain."""
        step = self.grid[1] - self.grid[0]
        if self.variable is PairVariable.TWO_ANGLE:
            return float(np.sum(self.values) * step * step)
        return float(np.trapezoid(self.values, self.grid))


@dataclass
class DistSummary:
    """Moments and peak locations of a distance or relative-angle law."""
    mean: float
    second_moment: float
    local_maxima: list


def require_pairs(matrix):
    """N2 = <:N^2:> = M_00 of the state's harmonic matrix M.

    Every |M_jk| is at most 4 N2, so an N2 of at most PAIR_WEIGHT_TOL
    times the largest |M_jk| is rounding noise, whatever the occupation:
    such a state has no pairs and raises NoPairsError.
    """
    norm = float(matrix[0, 0])
    if norm <= PAIR_WEIGHT_TOL * float(np.max(np.abs(matrix))):
        raise NoPairsError(
            "state has <:N^2:> ~ 0; no particle pairs to correlate")
    return norm


def _clip_noise(values):
    # round-off can leave ~ -1e-16 at exact zeros of the density
    floor = -1e-10 * max(1.0, float(np.max(values, initial=0.0)))
    if np.min(values, initial=0.0) < floor:
        raise AlgebraInconsistencyError(
            "distribution turned significantly negative; "
            "inconsistent correlator input")
    return np.maximum(values, 0.0)


def _distance_kernel(state):
    """(N2, s, t, w) from the state's M: the distance law is
    D(d) = d exp(-d^2/2) [s (1 + d^4/8) + t d^2] / (4 N2), and
    w = s / (4 N2) is its bosonic weight."""
    matrix = harmonics(state)[1]
    norm = require_pairs(matrix)
    trace = float(matrix[1, 1] + matrix[2, 2])
    s = 2.0 * norm + trace
    return norm, s, -trace, s / (4.0 * norm)


def bosonic_weight(state):
    """w = s / (4 N2): the weight of the two-boson law in the state's
    distance law D = w D_B + (1 - w) D_F."""
    return _distance_kernel(state)[3]


def distance_distribution(state, n_points=DEFAULT_DISTANCE_POINTS):
    """Pair-distance density D(d) on [0, 8] from the exact kernel.

    The closure evaluates the law anywhere; values tabulates it on the grid.
    """
    norm, s, t, w = _distance_kernel(state)

    def closure(d):
        d = np.asarray(d, dtype=float)
        d2 = d * d
        return _clip_noise(d * np.exp(-0.5 * d2)
                           * (s * (1.0 + d2 * d2 / 8.0) + t * d2)
                           / (4.0 * norm))

    grid = np.linspace(0.0, DISTANCE_MAX, n_points)
    return PairDistribution(PairVariable.DISTANCE, grid, closure(grid),
                            normalization=norm, closure=closure,
                            meta={"bosonic_weight": w})


def angular_weight(matrix, theta, vartheta):
    """W(theta, vartheta) = g(theta)^T M g(vartheta), broadcast over the
    angle arrays."""
    t = 2.0 * np.asarray(theta, dtype=float)
    v = 2.0 * np.asarray(vartheta, dtype=float)
    return harmonic_weight(matrix, np.cos(t), np.sin(t), np.cos(v), np.sin(v))


def harmonic_weight(matrix, cos2t, sin2t, cos2v, sin2v):
    """W = g(theta)^T M g(vartheta) as a 9-term real sum, from the cosines
    and sines of 2 theta and 2 vartheta, a row of M at a time."""
    part = np.empty(np.shape(sin2v))
    for (m0, m1, m2), g in zip(matrix, (None, cos2t, sin2t)):
        row = cos2v * m1
        row += m0
        row += np.multiply(sin2v, m2, out=part)
        w = row if g is None else w + row * g
    return w


def angle_distribution(state, n_points=DEFAULT_ANGLE_POINTS):
    """Density of the relative angle folded to [0, pi): the orientation
    average of W. It exists for every state with pairs, anisotropic ones
    (NOON) included; as M is symmetric it is (1 + (2w - 1) cos 2D) / pi.
    """
    norm, _, t, w = _distance_kernel(state)

    def closure(delta):
        delta = 2.0 * np.asarray(delta, dtype=float)
        # folded: f(D) + f(D + pi) = 2 f(D), since the modes are odd
        return _clip_noise((norm - 0.5 * t * np.cos(delta))
                           / (math.pi * norm))

    grid = np.linspace(0.0, math.pi, n_points)
    return PairDistribution(PairVariable.REL_ANGLE, grid, closure(grid),
                            normalization=norm, closure=closure,
                            meta={"bosonic_weight": w})


def two_angle_distribution(state, n_points=DEFAULT_TWO_ANGLE_POINTS):
    """Joint density of the two detection angles on [0, 2pi)^2.

    Tabulated on the half-open periodic grid, where the plain Riemann sum
    is exact for the trigonometric-polynomial law.
    """
    m = harmonics(state)[1]
    norm = require_pairs(m)

    def closure(theta, vartheta):
        return _clip_noise(angular_weight(m, theta, vartheta)
                           / (4.0 * math.pi ** 2 * norm))

    axis = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    return PairDistribution(PairVariable.TWO_ANGLE, axis,
                            closure(axis[:, None], axis[None, :]),
                            normalization=norm, closure=closure)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _distance_maxima(w):
    """Maxima of w D_B + (1 - w) D_F: d = sqrt(u) at the positive roots u
    where the cubic carrying the sign of D'(d) falls through zero."""
    cubic = [-0.5 * w, 6.5 * w - 2.0, 6.0 - 16.0 * w, 4.0 * w]
    slope = np.polyder(cubic)
    # a real root comes out with imaginary part exactly 0; a double root
    # (slope 0) is an inflection, not a maximum
    return sorted(math.sqrt(u.real) for u in np.roots(cubic)
                  if u.imag == 0.0 and u.real > 0.0
                  and np.polyval(slope, u.real) < 0.0)


def summarize(dist):
    """Moments and maxima of a distance or relative-angle law, in closed
    form from its bosonic weight w = dist.meta["bosonic_weight"].

    Distance: D = w D_B + (1 - w) D_F, so E[d] = sqrt(pi/2) (3/2 - w/8)
    and E[d^2] = 4; with u = d^2, D'(d) has the sign of
    4w + (6 - 16w) u + (6.5w - 2) u^2 - (w/2) u^3, and the maxima are the
    roots where it changes sign from + to -.
    Angle: f = (1 + (2w - 1) cos 2D) / pi on [0, pi), so E[D] = pi/2 and
    E[D^2] = pi^2/3 + (2w - 1)/2; the maxima are 0 and pi when 2w > 1,
    pi/2 when 2w < 1, and none when the law is flat.
    """
    w = dist.meta.get("bosonic_weight")
    if w is None or dist.variable is PairVariable.TWO_ANGLE:
        raise ValueError("summarize expects a distance or relative-angle "
                         "law with meta['bosonic_weight']")
    if dist.variable is PairVariable.DISTANCE:
        mean = math.sqrt(0.5 * math.pi) * (1.5 - w / 8.0)
        second = 4.0
        maxima = _distance_maxima(w)
    else:
        contrast = 2.0 * w - 1.0
        mean = 0.5 * math.pi
        second = math.pi ** 2 / 3.0 + 0.5 * contrast
        spread = 2.0 * abs(contrast) / math.pi
        # flat: spread below 1e-9 max(1, peak), i.e. |2w - 1| <~ 1.6e-9
        if spread <= 1e-9 * max(1.0, (1.0 + abs(contrast)) / math.pi):
            maxima = []
        elif contrast > 0.0:
            maxima = [0.0, math.pi]
        else:
            maxima = [0.5 * math.pi]

    return DistSummary(mean=mean, second_moment=second, local_maxima=maxima)
